"""The 70-workload evaluation suite (the paper's Table III).

The paper's workloads are proprietary traces; each name here is a synthetic
proxy built from the generator's vocabulary.  The named outliers the paper
analyzes individually get hand-written specs that reproduce the specific
mechanism attributed to them:

* ``lammps`` — one dominant, tiny, maximally hard IF hammock on a serial
  chain: the >2x positive outlier of Fig. 7.
* ``soplex`` — mispredictions shadowed by a serialized DRAM pointer chase:
  flush reduction without speedup (Fig. 7's left end).
* ``omnetpp`` — a perfectly correlated follower branch: predication removes
  the leader from the history and the follower starts missing (Fig. 7's
  negative outlier, Section II-C2).
* ``eembc`` / ``h264ref`` — hammock bodies produce the address of a
  critical long-latency load: predication elongates the critical path; ACB
  without Dynamo loses ~20% (Fig. 8, Section V-B).

``paper_tag`` carries the Fig. 8/9 category letter (A, B1, B2, C, D, E)
where the paper assigns one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.workloads.generator import build_workload
from repro.workloads.specs import HammockSpec, WorkloadSpec
from repro.workloads.workload import Workload

_MASK = (1 << 63) - 1


def _name_seed(name: str) -> int:
    h = 1469598103934665603
    for ch in name:
        h = ((h ^ ord(ch)) * 1099511628211) & _MASK
    return h or 1


class _Rng:
    """Deterministic per-name parameter stream."""

    def __init__(self, name: str):
        self._s = _name_seed(name)

    def _next(self) -> int:
        s = self._s
        s ^= (s << 13) & _MASK
        s ^= s >> 7
        s ^= (s << 17) & _MASK
        self._s = s & _MASK
        return self._s

    def choice(self, seq):
        return seq[self._next() % len(seq)]

    def randint(self, lo: int, hi: int) -> int:
        return lo + self._next() % (hi - lo + 1)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (self._next() / float(_MASK)) * (hi - lo)


# ----------------------------------------------------------------------
# Hand-written outlier specs
# ----------------------------------------------------------------------
def _special_specs() -> Dict[str, WorkloadSpec]:
    specs = [
        WorkloadSpec(
            name="lammps",
            category="Server",
            paper_tag="A",
            seed=_name_seed("lammps"),
            hammocks=(HammockSpec(shape="if", nt_len=3, p=0.48),),
            ilp=1,
            chain=4,
            memory="none",
            description="dominant tiny H2P hammock on a serial chain (>2x gain)",
        ),
        WorkloadSpec(
            name="soplex",
            category="FSPEC",
            paper_tag="shadowed",
            seed=_name_seed("soplex"),
            hammocks=(HammockSpec(shape="if", nt_len=4, p=0.35),),
            ilp=3,
            chain=1,
            memory="chase",
            mem_span_kb=64 * 1024,
            description="mispredictions shadowed by a DRAM pointer chase",
        ),
        WorkloadSpec(
            name="omnetpp",
            category="ISPEC",
            paper_tag="D",
            seed=_name_seed("omnetpp"),
            hammocks=(HammockSpec(shape="if", nt_len=5, p=0.42, followers=2),),
            ilp=3,
            chain=2,
            memory="strided",
            train_shift=-0.15,
            description="correlated follower loses accuracy under predication",
        ),
        WorkloadSpec(
            name="h264ref",
            category="ISPEC",
            paper_tag="C",
            seed=_name_seed("h264ref"),
            hammocks=(
                HammockSpec(shape="if", nt_len=10, p=0.30, slow_source=True,
                            slow_span_kb=1024, join_feeds_chain=True),
            ),
            ilp=8,
            chain=1,
            memory="strided",
            mem_span_kb=64,
            description="body feeds a critical load: predication-hostile",
        ),
        WorkloadSpec(
            name="eembc",
            category="Client",
            paper_tag="C",
            seed=_name_seed("eembc"),
            hammocks=(
                HammockSpec(shape="if", nt_len=12, p=0.28, slow_source=True,
                            slow_span_kb=2048, join_feeds_chain=True),
            ),
            ilp=6,
            chain=1,
            memory="strided",
            mem_span_kb=64,
            description="body feeds a critical load: worst no-Dynamo outlier",
        ),
        WorkloadSpec(
            name="gobmk",
            category="ISPEC",
            paper_tag="B1",
            seed=_name_seed("gobmk"),
            hammocks=(
                HammockSpec(shape="multi_exit", nt_len=8, p=0.40, escape_p=0.18),
            ),
            ilp=3,
            chain=2,
            memory="strided",
            description="multiple reconvergence points: DMP's compiler wins",
        ),
        WorkloadSpec(
            name="sjeng",
            category="ISPEC",
            paper_tag="B1",
            seed=_name_seed("sjeng"),
            hammocks=(
                HammockSpec(shape="multi_exit", nt_len=6, p=0.35, escape_p=0.15),
                HammockSpec(shape="if", nt_len=4, p=0.30),
            ),
            ilp=4,
            chain=1,
            memory="strided",
            description="multi-exit plus a plain hammock",
        ),
        WorkloadSpec(
            name="povray",
            category="FSPEC",
            paper_tag="B2",
            seed=_name_seed("povray"),
            hammocks=(
                HammockSpec(shape="if_else", taken_len=10, nt_len=10, p=0.45,
                            body_op="mul", slow_source=True, slow_span_kb=16,
                            join_feeds_chain=True),
            ),
            ilp=2,
            chain=1,
            memory="strided",
            description="long-latency bodies: eager (select-uop) execution wins",
        ),
        WorkloadSpec(
            name="namd",
            category="FSPEC",
            paper_tag="B2",
            seed=_name_seed("namd"),
            hammocks=(
                HammockSpec(shape="if_else", taken_len=8, nt_len=8, p=0.40,
                            body_op="mul", slow_source=True, slow_span_kb=16,
                            join_feeds_chain=True),
            ),
            ilp=3,
            chain=2,
            memory="strided",
            description="long-latency bodies favouring eager execution",
        ),
        WorkloadSpec(
            name="xalancbmk",
            category="ISPEC",
            paper_tag="D",
            seed=_name_seed("xalancbmk"),
            hammocks=(
                HammockSpec(shape="if", nt_len=6, p=0.38, followers=2),
                HammockSpec(shape="if_else", taken_len=3, nt_len=3, p=0.25),
            ),
            ilp=3,
            chain=2,
            memory="strided",
            train_shift=-0.20,
            description="correlated followers + profile/input mismatch",
        ),
        WorkloadSpec(
            name="perlbench",
            category="ISPEC",
            paper_tag="D",
            seed=_name_seed("perlbench"),
            hammocks=(
                HammockSpec(shape="if_else", taken_len=4, nt_len=4, p=0.40,
                            followers=2),
            ),
            ilp=4,
            chain=1,
            memory="strided",
            train_shift=0.18,
            description="follower correlation destroyed by predication",
        ),
        WorkloadSpec(
            name="gcc",
            category="ISPEC",
            paper_tag="E",
            seed=_name_seed("gcc"),
            hammocks=(
                HammockSpec(shape="if_else", taken_len=10, nt_len=10, p=0.35,
                            live_outs=4, slow_source=True, slow_span_kb=1024,
                            join_feeds_chain=True),
            ),
            ilp=6,
            chain=1,
            memory="strided",
            description="wide live-out sets: select-uop allocation stalls",
        ),
        WorkloadSpec(
            name="mcf",
            category="ISPEC",
            paper_tag="E",
            seed=_name_seed("mcf"),
            hammocks=(
                HammockSpec(shape="if_else", taken_len=12, nt_len=8, p=0.30,
                            live_outs=4, slow_source=True, slow_span_kb=2048,
                            join_feeds_chain=True),
            ),
            ilp=8,
            chain=1,
            memory="strided",
            mem_span_kb=64,
            description="select-uop pressure + dependent loads",
        ),
    ]
    return {s.name: s for s in specs}


# ----------------------------------------------------------------------
# Template-based generation for the remaining names
# ----------------------------------------------------------------------
_CATEGORY_NAMES: Dict[str, Sequence[str]] = {
    "ISPEC": (
        "perlbench", "bzip2", "gcc", "mcf", "gobmk", "hmmer", "sjeng",
        "libquantum", "h264ref", "omnetpp", "astar", "xalancbmk",
    ),
    "FSPEC": (
        "bwaves", "gamess", "milc", "zeusmp", "soplex", "povray", "calculix",
        "gemsfdtd", "tonto", "lbm", "wrf", "sphinx3", "gromacs", "cactusADM",
        "leslie3d", "namd", "dealII",
    ),
    "SPEC17": (
        "cactuBSSN_17", "lbm_17", "cam4_17", "pop2_17", "imagick_17",
        "nab_17", "roms_17", "perlbench_17", "gcc_17", "mcf_17",
        "omnetpp_17", "xalancbmk_17", "x264_17", "deepsjeng_17", "leela_17",
        "exchange2_17", "xz_17",
    ),
    "SYSmark": ("winzip", "photoshop", "sketchup", "premiere"),
    "Client": (
        "tabletmark", "geekbench_int", "geekbench_fp", "compression",
        "3dmark", "eembc", "chrome",
    ),
    "Server": (
        "lammps", "parsec_blackscholes", "parsec_canneal", "parsec_dedup",
        "parsec_ferret", "parsec_fluidanimate", "parsec_freqmine",
        "parsec_streamcluster", "parsec_swaptions", "parsec_bodytrack",
        "parsec_facesim", "parsec_raytrace", "parsec_vips",
    ),
}

#: Names whose kernels are branch-friendly (predictable): the suite needs
#: workloads that are insensitive to predication, as in Figs. 6/11.
_PREDICTABLE = {
    "bwaves", "milc", "lbm", "lbm_17", "wrf", "gamess", "cactusADM",
    "cactuBSSN_17", "roms_17", "imagick_17", "exchange2_17",
    "parsec_blackscholes", "parsec_swaptions", "sketchup",
}

#: Loop-dominated kernels (jittery inner-loop exits).
_LOOPY = {"libquantum", "zeusmp", "tonto", "nab_17", "pop2_17", "compression",
          "parsec_streamcluster", "winzip"}

#: Phase-changing kernels (exercise Dynamo's periodic reset).
_PHASED = {"chrome", "photoshop", "premiere", "tabletmark", "parsec_ferret"}


def _template_spec(name: str, category: str) -> WorkloadSpec:
    rng = _Rng(name)
    hammocks: List[HammockSpec] = []

    if name in _PREDICTABLE:
        hammocks.append(
            HammockSpec(
                shape=rng.choice(("if", "if_else")),
                taken_len=rng.randint(2, 4),
                nt_len=rng.randint(2, 5),
                kind="periodic",
                pattern=tuple(rng.choice((True, False)) for _ in range(6)) or (True,),
            )
        )
        memory = rng.choice(("strided", "strided", "random"))
        span = 64
    elif name in _PHASED:
        hammocks.append(
            HammockSpec(
                shape="if",
                nt_len=rng.randint(4, 8),
                kind="phased",
                phases=((rng.randint(2000, 5000), rng.uniform(0.3, 0.5)),
                        (rng.randint(2000, 5000), rng.uniform(0.0, 0.05))),
            )
        )
        memory = "strided"
        span = 256
    else:
        count = rng.randint(1, 2)
        for _ in range(count):
            shape = rng.choice(("if", "if", "if_else", "type3", "nested"))
            hammocks.append(
                HammockSpec(
                    shape=shape,
                    taken_len=rng.randint(2, 8),
                    nt_len=rng.randint(2, 8),
                    p=rng.uniform(0.12, 0.48),
                    store_in_body=rng.randint(0, 4) == 0,
                )
            )
        memory = rng.choice(("strided", "strided", "random", "none"))
        span = rng.choice((64, 256, 1024, 4096))

    inner = (rng.randint(8, 20), rng.randint(2, 6)) if name in _LOOPY else None
    return WorkloadSpec(
        name=name,
        category=category,
        seed=_name_seed(name),
        hammocks=tuple(hammocks),
        ilp=rng.randint(1, 5),
        chain=rng.randint(1, 3),
        memory=memory,
        mem_span_kb=span,
        mem_ops=rng.randint(1, 2),
        inner_loop=inner,
        description="template-generated proxy",
    )


# ----------------------------------------------------------------------
def suite_specs() -> Dict[str, WorkloadSpec]:
    """All 70 workload specs, keyed by name."""
    special = _special_specs()
    specs: Dict[str, WorkloadSpec] = {}
    for category, names in _CATEGORY_NAMES.items():
        for name in names:
            if name in special and special[name].category == category:
                specs[name] = special[name]
            else:
                specs[name] = _template_spec(name, category)
    return specs


def load_suite(names: Optional[Sequence[str]] = None) -> List[Workload]:
    """Build (a subset of) the suite as runnable workloads."""
    specs = suite_specs()
    if names is None:
        selected = list(specs.values())
    else:
        missing = [n for n in names if n not in specs]
        if missing:
            raise KeyError(f"unknown workloads: {missing}")
        selected = [specs[n] for n in names]
    return [build_workload(spec) for spec in selected]


def suite_names() -> List[str]:
    """The keys of :func:`suite_specs`, without building the specs."""
    return list(dict.fromkeys(
        name for names in _CATEGORY_NAMES.values() for name in names
    ))


def categories() -> Dict[str, List[str]]:
    """Category → workload-name map (the Table III bench)."""
    out: Dict[str, List[str]] = {}
    for name, spec in suite_specs().items():
        out.setdefault(spec.category, []).append(name)
    return out


#: A 12-workload representative subset for quick experiments: the named
#: outliers plus one typical workload per category.
REPRESENTATIVE = (
    "lammps", "soplex", "omnetpp", "eembc", "h264ref", "gobmk", "povray",
    "gcc", "perlbench", "bzip2", "chrome", "winzip",
)
