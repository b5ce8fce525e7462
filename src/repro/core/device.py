"""Device models: an xPU, an optional PIM unit, and shared HBM.

The defining property of Duplex (versus the heterogeneous system of Section
III-B) is that both units share the *same* device memory — so weights are
never duplicated and either unit can touch any resident tensor, bank-bundle
conflicts aside.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.hardware.processor import ProcessingUnit
from repro.hardware.specs import (
    DUPLEX_STACKS,
    bank_pim_unit,
    h100_xpu,
    logic_pim_unit,
)
from repro.units import GiB


@dataclass(frozen=True)
class DeviceModel:
    """One accelerator package.

    Attributes:
        name: label used in reports.
        xpu: the high-Op/B unit, or None for a PIM-only device.
        pim: the low-Op/B unit, or None for a plain GPU.
        hbm_capacity_bytes: shared device memory.
        num_memory_spaces: bank-bundle-indexed memory spaces (Section V-C).
    """

    name: str
    xpu: ProcessingUnit | None
    pim: ProcessingUnit | None
    hbm_capacity_bytes: float = 80 * GiB
    num_memory_spaces: int = 4

    def __post_init__(self) -> None:
        if self.xpu is None and self.pim is None:
            raise ConfigError(f"device {self.name} needs at least one processing unit")
        if self.hbm_capacity_bytes <= 0:
            raise ConfigError(f"device {self.name}: capacity must be positive")
        if self.num_memory_spaces < 1:
            raise ConfigError(f"device {self.name}: needs at least one memory space")

    @property
    def supports_coprocessing(self) -> bool:
        """Both units present and more than one memory space to split over."""
        return self.xpu is not None and self.pim is not None and self.num_memory_spaces >= 2

    def require_xpu(self) -> ProcessingUnit:
        if self.xpu is None:
            raise ConfigError(f"device {self.name} has no xPU")
        return self.xpu

    def require_pim(self) -> ProcessingUnit:
        if self.pim is None:
            raise ConfigError(f"device {self.name} has no PIM unit")
        return self.pim


def gpu_device(stacks: int = DUPLEX_STACKS) -> DeviceModel:
    """The baseline H100-class GPU (plain HBM3, no PIM path)."""
    return DeviceModel(name="GPU", xpu=h100_xpu(stacks=stacks), pim=None)


def duplex_device(stacks: int = DUPLEX_STACKS) -> DeviceModel:
    """A Duplex device: H100-class xPU plus Logic-PIM on the same stacks."""
    return DeviceModel(name="Duplex", xpu=h100_xpu(stacks=stacks), pim=logic_pim_unit(stacks=stacks))


def bank_pim_duplex_device(stacks: int = DUPLEX_STACKS) -> DeviceModel:
    """The Section VII-C comparison point: xPU plus in-bank PIM."""
    return DeviceModel(name="Bank-PIM", xpu=h100_xpu(stacks=stacks), pim=bank_pim_unit(stacks=stacks))


def pim_only_device(stacks: int = DUPLEX_STACKS) -> DeviceModel:
    """A device with only the low-Op/B unit (the hetero system's PIM nodes)."""
    return DeviceModel(name="PIM-only", xpu=None, pim=logic_pim_unit(stacks=stacks))
