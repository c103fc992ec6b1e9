"""Multi-APU node: four MI300As joined by Infinity Fabric (xGMI).

The paper's testbed has four APUs per node, bound to one APU with
``numactl`` / ``HIP_VISIBLE_DEVICES`` (Section 3); its companion study
(Schieffer et al., "Inter-APU communication on AMD MI300A systems via
Infinity Fabric", cited as [30]) characterises the links between them
and finds that **hipMalloc buffers provide the best communication
performance** — the same contiguity/pinning properties that win inside
one APU (Figs. 3 and 9) also govern the DMA path between APUs.

This module models the node level: the fully connected xGMI topology,
per-link bandwidth, allocator-dependent peer-transfer efficiency, and
the numactl-style binding the paper uses to isolate one APU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.allocators import Allocation, AllocatorKind
from ..partition.modes import PartitionConfig
from .config import MI300AConfig


@dataclass(frozen=True)
class NodeConfig:
    """One node of the paper's testbed (an El Capitan-class blade)."""

    apus_per_node: int = 4
    #: Peak unidirectional xGMI bandwidth between a pair of APUs.
    xgmi_link_bandwidth_bytes_per_s: float = 48e9
    #: Peer-transfer efficiency by source-buffer allocator: pinned,
    #: contiguous hipMalloc memory feeds the DMA engines at full rate;
    #: pinned host memory loses some to smaller descriptors; pageable
    #: memory bounces through the CPU fault path.
    hipmalloc_efficiency: float = 1.0
    pinned_efficiency: float = 0.75
    pageable_efficiency: float = 0.33
    #: Per-transfer setup (peer mapping + doorbell).
    transfer_setup_ns: float = 8_000.0


#: Allocator kinds treated as contiguous device memory by the peer path.
_DEVICE_KINDS = (AllocatorKind.HIP_MALLOC, AllocatorKind.STATIC_DEVICE)
_PINNED_KINDS = (
    AllocatorKind.HIP_HOST_MALLOC,
    AllocatorKind.HIP_MALLOC_MANAGED,
    AllocatorKind.MALLOC_REGISTERED,
    AllocatorKind.MANAGED_STATIC,
)


class MI300ANode:
    """Four simulated APUs and the xGMI fabric between them.

    APUs are created lazily by index; the node keeps them independent
    (each has its own clock and memory pool, as separate NUMA domains),
    and models communication *between* them with the link model.
    """

    def __init__(
        self,
        node_config: Optional[NodeConfig] = None,
        apu_memory_gib: Optional[int] = None,
        xnack: bool = False,
        seed: int = 0x1300A,
        partition: Optional[PartitionConfig] = None,
    ) -> None:
        self.config = node_config if node_config is not None else NodeConfig()
        self._apu_memory_gib = apu_memory_gib
        self._xnack = xnack
        self._seed = seed
        self._apus: Dict[int, "APU"] = {}
        self._link_traffic: Dict[Tuple[int, int], int] = {}
        self._visible: Optional[List[int]] = None
        self._default_partition = partition
        self._partitions: Dict[int, PartitionConfig] = {}

    # ------------------------------------------------------------------
    # APU access / binding
    # ------------------------------------------------------------------

    def apu(self, index: int) -> "APU":
        """The APU at *index* (created on first use)."""
        self._check_index(index)
        if self._visible is not None and index not in self._visible:
            raise PermissionError(
                f"APU {index} hidden by HIP_VISIBLE_DEVICES={self._visible}"
            )
        if index not in self._apus:
            from ..runtime.apu import make_apu

            self._apus[index] = make_apu(
                self._apu_memory_gib, xnack=self._xnack,
                seed=self._seed + index,
                partition=self.partition_of(index),
            )
        return self._apus[index]

    def partition_of(self, index: int) -> Optional[PartitionConfig]:
        """The partition mode APU *index* will boot with (None = SPX/NPS1)."""
        self._check_index(index)
        return self._partitions.get(index, self._default_partition)

    def set_partition(self, index: int, partition: PartitionConfig) -> None:
        """Repartition one APU, amd-smi style.

        Like ``amd-smi set --compute-partition/--memory-partition``, the
        mode change requires the accelerator to be idle: any existing
        simulated APU state at *index* (allocations, clock, page tables)
        is discarded and the APU is rebuilt on next use.
        """
        self._check_index(index)
        self._partitions[index] = partition
        self._apus.pop(index, None)

    def bind(self, index: int) -> "APU":
        """numactl + HIP_VISIBLE_DEVICES: restrict the process to one APU.

        This is the paper's experimental methodology (Section 3) — all
        single-APU experiments run bound like this.
        """
        self._check_index(index)
        self._visible = [index]
        return self.apu(index)

    def bind_logical(self, index: int, device: int) -> Tuple["APU", object]:
        """Bind to one *logical* device of a partitioned APU.

        The partitioned analogue of :meth:`bind`: the paper pins a
        process to one APU with numactl + HIP_VISIBLE_DEVICES, and on a
        repartitioned node the same recipe pins it to one logical device
        (e.g. one CPX XCD with its NPS4 quadrant).  Returns the APU and
        the selected :class:`~repro.partition.LogicalDevice`.
        """
        apu = self.bind(index)
        return apu, apu.placement.device(device)

    def unbind(self) -> None:
        """Make all APUs visible again."""
        self._visible = None

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.config.apus_per_node:
            raise IndexError(
                f"APU index {index} out of range "
                f"[0, {self.config.apus_per_node})"
            )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def hops(self, src: int, dst: int) -> int:
        """Fabric hops between two APUs (xGMI links every pair: 0 or 1)."""
        self._check_index(src)
        self._check_index(dst)
        return int(src != dst)

    # ------------------------------------------------------------------
    # Peer transfers
    # ------------------------------------------------------------------

    def peer_bandwidth(self, allocation: Allocation) -> float:
        """Achievable inter-APU bandwidth for a source buffer.

        The finding of [30]: hipMalloc buffers communicate best; pinned
        host memory is mid-tier; pageable memory is slowest.
        """
        cfg = self.config
        link = cfg.xgmi_link_bandwidth_bytes_per_s
        if allocation.kind in _DEVICE_KINDS:
            return link * cfg.hipmalloc_efficiency
        if allocation.kind in _PINNED_KINDS and allocation.pinned:
            return link * cfg.pinned_efficiency
        return link * cfg.pageable_efficiency

    def peer_memcpy(
        self,
        dst_apu: int,
        src_apu: int,
        allocation: Allocation,
        nbytes: Optional[int] = None,
    ) -> float:
        """Copy a buffer between APUs; returns the transfer time in ns.

        Advances both endpoints' clocks (the transfer occupies both
        sides' fabric interfaces) and accounts link traffic.
        """
        self._check_index(dst_apu)
        self._check_index(src_apu)
        if dst_apu == src_apu:
            raise ValueError("peer copy requires two distinct APUs")
        if nbytes is None:
            nbytes = allocation.size_bytes
        if nbytes <= 0 or nbytes > allocation.size_bytes:
            raise ValueError(f"bad transfer size {nbytes}")
        bandwidth = self.peer_bandwidth(allocation)
        duration = self.config.transfer_setup_ns + nbytes / bandwidth * 1e9
        key = (min(src_apu, dst_apu), max(src_apu, dst_apu))
        self._link_traffic[key] = self._link_traffic.get(key, 0) + nbytes
        for index in (src_apu, dst_apu):
            if index in self._apus:
                self._apus[index].clock.advance(duration)
        return duration

    def link_traffic_bytes(self) -> Dict[Tuple[int, int], int]:
        """Cumulative bytes per link (sorted APU-index pairs)."""
        return dict(self._link_traffic)

    def all_to_all_time_ns(self, allocation_bytes: int, kind: str = "hipMalloc") -> float:
        """Model an all-to-all exchange of *allocation_bytes* per pair.

        Each APU sends to every other APU; links are independent, so the
        exchange completes in (n-1) sequential rounds of parallel pair
        transfers.  Used by the node-level bench.
        """
        cfg = self.config
        efficiency = {
            "hipMalloc": cfg.hipmalloc_efficiency,
            "hipHostMalloc": cfg.pinned_efficiency,
            "malloc": cfg.pageable_efficiency,
        }.get(kind)
        if efficiency is None:
            raise ValueError(f"unknown allocator kind {kind!r}")
        bandwidth = cfg.xgmi_link_bandwidth_bytes_per_s * efficiency
        per_round = cfg.transfer_setup_ns + allocation_bytes / bandwidth * 1e9
        return (cfg.apus_per_node - 1) * per_round
