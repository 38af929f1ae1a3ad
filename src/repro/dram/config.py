"""DRAM geometry (Table III) and derived quantities.

The HBM2E-like configuration: 16 banks per (pseudo) channel, 32K rows per
bank, 8 Kb (1 KB) rows accessed as 32 column I/Os of 256 bits, bfloat16
elements, and 16 multipliers per bank rate-matched to one column access.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError

COMMAND_FAMILY_NEWTON = "newton"
"""The paper's GWRITE/G_ACT/COMP/READRES protocol (the default)."""

COMMAND_FAMILY_OUTPUT_STATIONARY = "output_stationary"
"""MAC-DO-style output-stationary dataflow: partials accumulate in place
at the sense-amp result latch across every input chunk and drain with a
single READRES per tile — no per-(chunk, tile) result reads, at the cost
of re-streaming the input chunk once per tile."""

COMMAND_FAMILY_BANKGROUP_EXT = "bankgroup_ext"
"""GradPIM-style bank-group command extension: activation commands are
issued per bank group, so the four-activation tFAW window is tracked per
group instead of per channel (tRRD stays channel-global)."""

RIVAL_COMMAND_FAMILIES = (
    COMMAND_FAMILY_OUTPUT_STATIONARY,
    COMMAND_FAMILY_BANKGROUP_EXT,
)
"""The non-Newton families the explorer and the fuzzer compare against."""

COMMAND_FAMILIES = (COMMAND_FAMILY_NEWTON, *RIVAL_COMMAND_FAMILIES)
"""Every in-DRAM command family the simulator models. The family rides
on :class:`DRAMConfig` so it reaches every consumer that already takes
the config — controller, command generation, invariant checker, cycle
oracle — without new plumbing; each reads its rules from
:attr:`DRAMConfig.rules`."""


@dataclass(frozen=True)
class FamilyRules:
    """One command family's protocol rules, declared once (DESIGN.md,
    "Command rules", lists who reads each). The defaults are Newton's;
    a rival family states where it differs. Helpers take the traversal
    as ``interleaved`` (``interleaved_reuse``), so this layer needs
    nothing from :mod:`repro.core`."""

    name: str
    faw_per_bank_group: bool = False
    """tFAW counts activations per bank group, not per channel (tRRD is
    channel-wide in every family)."""
    tile_major: bool = False
    """Tiles are walked outermost: a tile's partials accumulate in latch 0
    across every input chunk and drain with one READRES. Needs the
    interleaved layout."""
    elides_gwrites: bool = True
    """A fused session may drop the host GWRITEs of a channel-resident
    input (a tile-major walk re-streams the input as its dataflow)."""
    multi_latch: bool = True
    """The family specifies the row-major multi-latch variants."""

    def faw_windows(self, config: "DRAMConfig") -> int:
        """How many independent tFAW windows a channel keeps."""
        return config.bank_groups if self.faw_per_bank_group else 1

    def faw_window(self, group: int) -> int:
        """The tFAW window an activation of bank group ``group`` counts in."""
        return group if self.faw_per_bank_group else 0

    def whole_row_readout(self, interleaved: bool) -> bool:
        """Whether READRES carries finished row sums (a tile-major walk or
        the row-major traversal): then the in-DRAM activation LUT applies
        and the one-read-per-fill latch rule does not."""
        return self.tile_major or not interleaved

    def can_walk(self, interleaved: bool) -> bool:
        """Whether the family can walk the traversal ``interleaved`` picks."""
        return interleaved or not self.tile_major

    def check_traversal(self, interleaved: bool) -> None:
        """Raise :class:`ConfigurationError` unless :meth:`can_walk`."""
        if not self.can_walk(interleaved):
            raise ConfigurationError(
                f"the {self.name} family is a tile-major traversal of "
                "the interleaved layout; it requires interleaved_reuse"
            )

    def check_latches(self, latches: int) -> None:
        """Raise :class:`ConfigurationError` for an unspecified
        multi-latch variant (the design-space sweep's prune)."""
        if latches != 1 and not self.multi_latch:
            raise ConfigurationError(
                "rival command families are specified against the "
                "single-latch adder tree; multi-latch variants only exist "
                "for the newton row-major traversal"
            )


FAMILY_RULES = {
    rules.name: rules
    for rules in (
        FamilyRules(COMMAND_FAMILY_NEWTON),
        FamilyRules(
            COMMAND_FAMILY_OUTPUT_STATIONARY,
            tile_major=True,
            elides_gwrites=False,
            multi_latch=False,
        ),
        FamilyRules(
            COMMAND_FAMILY_BANKGROUP_EXT,
            faw_per_bank_group=True,
            elides_gwrites=False,
            multi_latch=False,
        ),
    )
}
"""Every command family's rules, keyed by name."""


def family_rules(name: str) -> FamilyRules:
    """The rules of command family ``name`` (:class:`ConfigurationError`
    if there is no such family)."""
    try:
        return FAMILY_RULES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown command family {name!r}; "
            f"available: {list(COMMAND_FAMILIES)}"
        ) from None


@dataclass(frozen=True)
class DRAMConfig:
    """Geometry of one Newton-capable DRAM device."""

    num_channels: int = 1
    """(Pseudo) channels; Newton's per-channel operation simply repeats
    across channels (Section III-D)."""

    banks_per_channel: int = 16
    """Banks per channel; Figure 10 sweeps this over {8, 16, 32}."""

    rows_per_bank: int = 32768
    """DRAM rows per bank (Table III: 32K)."""

    cols_per_row: int = 32
    """Column I/Os per row (Table III: 32 accesses of 256 b each)."""

    col_io_bits: int = 256
    """Bits per column access (one sub-chunk)."""

    elem_bits: int = 16
    """Bits per element (bfloat16)."""

    mults_per_bank: int = 16
    """Multipliers per bank; rate-matched when equal to elems_per_col."""

    bank_group_size: int = 4
    """Banks activated by one G_ACT command (the four-bank cluster)."""

    command_family: str = COMMAND_FAMILY_NEWTON
    """The in-DRAM command protocol this device speaks (one of
    :data:`COMMAND_FAMILIES`). Geometry is orthogonal: any family runs
    on any valid geometry."""

    def __post_init__(self) -> None:
        for name in (
            "num_channels",
            "banks_per_channel",
            "rows_per_bank",
            "cols_per_row",
            "col_io_bits",
            "elem_bits",
            "mults_per_bank",
            "bank_group_size",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")
        if self.col_io_bits % self.elem_bits != 0:
            raise ConfigurationError("column I/O width must be a whole number of elements")
        if self.banks_per_channel % self.bank_group_size != 0:
            raise ConfigurationError("banks per channel must be a multiple of the bank group size")
        if self.mults_per_bank != self.elems_per_col:
            raise ConfigurationError(
                "Newton rate-matches the multipliers to the column access: "
                f"mults_per_bank ({self.mults_per_bank}) must equal elements "
                f"per column access ({self.elems_per_col})"
            )
        family_rules(self.command_family)  # raises for an unknown family

    @property
    def rules(self) -> FamilyRules:
        """The rules of this device's command family."""
        return FAMILY_RULES[self.command_family]

    @property
    def elems_per_col(self) -> int:
        """Elements per column access (the sub-chunk: 16 bfloat16)."""
        return self.col_io_bits // self.elem_bits

    @property
    def elems_per_row(self) -> int:
        """Elements per DRAM row (the chunk: 512 bfloat16 = 1 KB)."""
        return self.elems_per_col * self.cols_per_row

    @property
    def row_bytes(self) -> int:
        """Bytes per DRAM row."""
        return self.elems_per_row * self.elem_bits // 8

    @property
    def col_io_bytes(self) -> int:
        """Bytes per column access."""
        return self.col_io_bits // 8

    @property
    def bank_groups(self) -> int:
        """Number of four-bank clusters per channel."""
        return self.banks_per_channel // self.bank_group_size

    @property
    def bank_bytes(self) -> int:
        """Capacity of one bank in bytes."""
        return self.rows_per_bank * self.row_bytes

    @property
    def channel_bytes(self) -> int:
        """Capacity of one channel in bytes."""
        return self.bank_bytes * self.banks_per_channel

    def with_overrides(self, **kwargs) -> "DRAMConfig":
        """Return a copy with the given fields replaced (for sweeps)."""
        return replace(self, **kwargs)


def hbm2e_like_config(num_channels: int = 1, banks_per_channel: int = 16) -> DRAMConfig:
    """The Table III HBM2E-like geometry preset."""
    return DRAMConfig(num_channels=num_channels, banks_per_channel=banks_per_channel)
