"""Chiplet topology of the MI300A APU.

The APU is built from six accelerator complex dies (XCDs, the GPU part),
three CPU complex dies (CCDs), and four IO dies (IODs) that implement
cross-die communication and the HBM3 interface (paper Fig. 1).  Every two
XCDs or three CCDs share an IOD; the Infinity Fabric interconnects the
chiplets and routes memory requests to channels.

The package is a star over a full mesh: every XCD, CCD and HBM stack
hangs off one IOD, and the IODs are fully connected.  So the topology is
one map from each chiplet to its home IOD, and every path is
``src -> home(src) -> home(dst) -> dst``.  Examples and tests use it to
reason about paths (e.g. XCD -> IOD -> HBM stack) and to check
structural invariants (all six XCDs presented as one device, shared
memory reachable from every chiplet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .config import MI300AConfig


@dataclass(frozen=True)
class Chiplet:
    """One die on the APU package."""

    kind: str  # "xcd", "ccd", "iod", or "hbm"
    index: int

    @property
    def node_id(self) -> str:
        """Stable node identifier, e.g. ``xcd3``."""
        return f"{self.kind}{self.index}"


class APUTopology:
    """The MI300A chiplet interconnect: each chiplet and its home IOD."""

    def __init__(self, config: MI300AConfig) -> None:
        needed = (config.xcd_count + 1) // 2
        if needed > config.iod_count:
            raise ValueError(
                f"{config.xcd_count} XCDs need {needed} IODs (two XCDs per "
                f"IOD), but the config has {config.iod_count}"
            )
        self._config = config
        # Every two XCDs share an IOD (6 XCDs -> IODs 0..2), the CCDs share
        # the last IOD, and IOD i hosts the PHYs of HBM stacks s with
        # s % iod_count == i.  Each IOD is its own home.
        last = config.iod_count - 1
        self._home: Dict[str, str] = {
            **{f"iod{i}": f"iod{i}" for i in range(config.iod_count)},
            **{f"xcd{i}": f"iod{i // 2}" for i in range(config.xcd_count)},
            **{f"ccd{i}": f"iod{last}" for i in range(config.ccd_count)},
            **{
                f"hbm{s}": f"iod{s % config.iod_count}"
                for s in range(config.hbm.stacks)
            },
        }

    def chiplets(self, kind: str) -> List[Chiplet]:
        """All chiplets of *kind* ("xcd", "ccd", "iod", or "hbm")."""
        return [
            Chiplet(kind, int(n[len(kind):]))
            for n in self._home if n.startswith(kind)
        ]

    def hops(self, src: str, dst: str) -> int:
        """Number of Infinity Fabric hops between two nodes."""
        return len(self.path(src, dst)) - 1

    def path(self, src: str, dst: str) -> List[str]:
        """The shortest path between two nodes: via their home IODs."""
        route = (src, self._home[src], self._home[dst], dst)
        return [src] if src == dst else list(dict.fromkeys(route))

    # ------------------------------------------------------------------
    # Partition-aware views (repro.partition builds on these)
    # ------------------------------------------------------------------

    def iod_of_xcd(self, xcd: int) -> int:
        """IOD index hosting XCD *xcd* (every two XCDs share an IOD)."""
        if not 0 <= xcd < self._config.xcd_count:
            raise IndexError(f"XCD index {xcd} out of range")
        return xcd // 2

    def xcds_of_iod(self, iod: int) -> List[int]:
        """XCD indices hosted by IOD *iod* (empty for the CCD IOD)."""
        if not 0 <= iod < self._config.iod_count:
            raise IndexError(f"IOD index {iod} out of range")
        return [x for x in range(self._config.xcd_count) if x // 2 == iod]

    def stacks_of_iod(self, iod: int) -> List[int]:
        """HBM stack indices whose PHY lives on IOD *iod*.

        Mirrors the ``hbm<s> -> iod<s % iod_count>`` homes: with
        8 stacks over 4 IODs, IOD *i* hosts stacks *i* and *i + 4*.
        These per-IOD stack pairs are the NPS4 NUMA domains.
        """
        if not 0 <= iod < self._config.iod_count:
            raise IndexError(f"IOD index {iod} out of range")
        return [
            s for s in range(self._config.hbm.stacks)
            if s % self._config.iod_count == iod
        ]

    def memory_reachable_from_all(self) -> bool:
        """True when every compute chiplet can reach every HBM stack.

        This is the structural property that makes the memory *physically
        unified*: there is no stack private to the CPU or the GPU.  It
        holds when every chiplet hangs off an IOD of the package, since
        the IODs are fully meshed.
        """
        iods = {c.node_id for c in self.chiplets("iod")}
        return all(home in iods for home in self._home.values())

    def max_hops_to_memory(self) -> int:
        """Worst-case hop count from any compute chiplet to any stack."""
        compute = [c.node_id for c in self.chiplets("xcd") + self.chiplets("ccd")]
        stacks = [c.node_id for c in self.chiplets("hbm")]
        return max(self.hops(c, s) for c in compute for s in stacks)

    def describe(self) -> str:
        """Human-readable one-line summary of the package."""
        cfg = self._config
        return (
            f"{cfg.name}: {cfg.xcd_count} XCD ({cfg.gpu_compute_units} CUs), "
            f"{cfg.ccd_count} CCD ({cfg.cpu_cores} cores), "
            f"{cfg.iod_count} IOD, {cfg.hbm.stacks}x"
            f"{cfg.hbm.stack_capacity_bytes // (1 << 30)} GiB HBM3"
        )


def link_pairs(topology: APUTopology) -> List[Tuple[str, str]]:
    """All Infinity Fabric edges in the package, as sorted node pairs."""
    home = topology._home
    links = [(n, iod) for n, iod in home.items() if n[:3] in ("xcd", "ccd")]
    iods = [n for n in home if n.startswith("iod")]
    links += [(a, b) for i, a in enumerate(iods) for b in iods[i + 1:]]
    return sorted((min(a, b), max(a, b)) for a, b in links)
