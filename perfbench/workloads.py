"""The four workloads: fixed corpora, seeded op order, and output checks.

Every workload builds one *pass*: a fixed list of ops whose order (and, for
the oracle, the sampling seed) comes from the workload seed.  The corpus
itself never depends on the seed, so every run does the same work.

Checks use hand-written or independently computed references, never the
code under test: the acceptance criteria's class sets, a golden file of
fold results recorded from the program at the commit that added the
benchmark, and the dimension walk of :mod:`exprs`.
"""

from __future__ import annotations

import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import exprs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_FOLD = HERE / "golden_fold.json"
CLI_PROBE = HERE / "cli_probe.py"

# Outcome of one op.
OK = "ok"
KNOWN = "known-defect"  # fails the way the benchmark's doc records
WRONG = "wrong"

# Fixed seed of the generated parts of the corpora (not the workload seed).
CORPUS_SEED = 1709


@dataclass(frozen=True)
class Op:
    key: str  # stable id of the input: per-input samples are grouped by it
    args: tuple
    heavy: bool = False
    known_defect: Optional[str] = None  # name of the defect in the doc


def _shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


def program_env() -> Dict[str, str]:
    """Environment for child interpreters that import the package from src/."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


class Workload:
    """One closed-loop client in this process, issuing ops one at a time."""

    name = ""
    tracer = None  # set by the runner during traced passes

    def load(self) -> None:
        """Import the program modules the workload calls."""

    def prepare(self, seed: int) -> List[Op]:
        """Build the op list of one pass and warm the per-process caches."""
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result, exc: Optional[BaseException]) -> str:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Release what ``prepare`` acquired."""


# ---------------------------------------------------------------------------
# Class-name checks shared by the fold and the CLI.

_TYPE_I = re.compile(r"^(1|Z\d+|D\d+|T|O|I|SO\(2\)|O\(2\)|SO\(3\))$")
_TYPE_III = re.compile(r"^(Z\d+\^-|D\d+\^v|D\d+\^h|O\^-|O\(2\)\^-)$")
_TYPE_II = re.compile(r"^\[(.+) x Zc2\]$")


def admissible(name: str, ctx: str) -> bool:
    """Is ``name`` a class of the context, by the rendering grammar alone?"""
    if _TYPE_I.match(name):
        return True
    if ctx == "so3":
        return False
    if name == "O(3)" or _TYPE_III.match(name):
        return True
    m = _TYPE_II.match(name)
    return bool(m and _TYPE_I.match(m.group(1)))


def full_class(ctx: str) -> str:
    return "SO(3)" if ctx == "so3" else "O(3)"


def _names(text: str) -> List[str]:
    return [s.strip() for s in text.split(",")]


# Class sets stated by acceptance criteria 1-5 and the README.
ELASTICITY = _names("1,Z2,D2,D3,D4,O,O(2),SO(3)")
CRITERIA = {
    ("so3", "H4 + 2*H2 + 2*H0"): ELASTICITY,
    ("so3", "H4 + H3 + 3*H2 + H1 + 2*H0"): _names("1,Z2,D2,Z3,D3,Z4,D4,T,O,SO(2),O(2),SO(3)"),
    ("o3", "H3 + H2* + 2*H1"): _names(
        "1,Z2,Z3,D2^v,D3^v,Z2^-,Z4^-,D2,D3,D4^h,D6^h,SO(2),O(2),O(2)^-,O^-,O(3)"),
    ("so3", "H4 + H3 + 4*H2 + 2*H1 + 3*H0"): _names(
        "1,Z2,Z3,Z4,D2,D3,D4,T,O,SO(2),O(2),SO(3)"),
    ("o3", "H4* + 3*H3 + 6*H2* + 6*H1 + 3*H0*"): _names(
        "1,Z2,Z3,Z4,Z2^-,Z4^-,Z6^-,D2,D3,D4,D2^v,D3^v,D4^v,D4^h,D6^h,D8^h,"
        "T,O,O^-,SO(2),O(2),O(2)^-,SO(3),O(3)"),
    ("o3", "H5 + 2*H4* + 5*H3 + 5*H2* + 6*H1 + H0*"): _names(
        "1,Z2,Z3,Z4,Z5,Z2^-,Z4^-,Z6^-,Z8^-,D2,D3,D4,D5,D2^v,D3^v,D4^v,D5^v,"
        "D4^h,D6^h,D8^h,D10^h,T,O,O^-,SO(2),O(2),O(2)^-,SO(3),O(3)"),
    ("o3", "H4* + 2*H3 + 3*H2* + 2*H1 + H0*"): _names(
        "1,Z2,Z3,Z4,Z2^-,Z4^-,Z6^-,D2,D3,D4,D2^v,D3^v,D4^v,D4^h,D6^h,D8^h,"
        "T,O,O^-,SO(2),O(2),O(2)^-,SO(3),O(3)"),
}
for _n in range(2, 7):
    CRITERIA[("so3", " + ".join(["H1"] * _n))] = _names("1,SO(2),SO(3)")
    CRITERIA[("so3", " + ".join(["S2(H1)"] * _n))] = _names("1,Z2,D2,O(2),SO(3)")


# ---------------------------------------------------------------------------
# oracle-sweep

def finite_classes(pmax: int) -> list:
    """The finite classes of acceptance criterion 6, parameters up to pmax."""
    from isoclips import (ICO, OCTA, OCTA_MINUS, TETRA, TRIV, cyclic, d_h, d_v,
                          dihedral, z_minus)

    out = [TRIV, TETRA, OCTA, ICO, OCTA_MINUS]
    out += [cyclic(n) for n in range(2, pmax + 1)]
    out += [dihedral(n) for n in range(2, pmax + 1)]
    out += [z_minus(p) for p in range(2, pmax + 1, 2)]
    out += [d_v(n) for n in range(2, pmax + 1)]
    out += [d_h(p) for p in range(4, pmax + 1, 2)]
    return out


# Cells whose membership work (|A| * |B| per frame) is at least this are
# counted as heavy: the I, O and order-24 dihedral pairs, 78 of 1225.
HEAVY_ORDERS = 480


class OracleSweep(Workload):
    """verify_clips over all 1225 finite-class pairs with parameter <= 12."""

    name = "oracle-sweep"

    def load(self) -> None:
        import isoclips.oracle.verify

        self.verify = isoclips.oracle.verify

    def prepare(self, seed: int) -> List[Op]:
        classes = finite_classes(12)
        pairs = [(a, b) for i, a in enumerate(classes) for b in classes[i:]]
        ops = [Op(f"{a} o {b}", (a, b, seed), heavy=a.order() * b.order() >= HEAVY_ORDERS)
               for a, b in _shuffled(pairs, seed)]
        # What a library user pays once per process: the canonical
        # realizations, and the first call into the kernels.
        for c in classes:
            self.verify.realize(c)
        self.verify.verify_clips(classes[0], classes[0], samples=1, seed=seed)
        return ops

    def execute(self, op: Op):
        a, b, seed = op.args
        return self.verify.verify_clips(a, b, samples=200, seed=seed)

    def check(self, op: Op, result, exc) -> str:
        return OK if exc is None and result.verdict == "pass" else WRONG


# ---------------------------------------------------------------------------
# isotropy-fold

# Heavy inputs: long folds (k*H4 and friends), large class sets, and a
# square nest whose fold sees dozens of high-multiplicity labels.
# Around the tail rank (the 11th heaviest input) the k ladder has rungs
# about 10% apart, so the tail is an order statistic of a dense cluster of
# similar inputs rather than the value of one input next to a cliff.
FOLD_LADDER = (50, 100, 150, 165, 180, 200, 220, 240, 265, 290, 320, 350, 385, 500, 700,
               1000, 1500, 2000)
FOLD_HEAVY = [("so3", f"{k}*H4") for k in FOLD_LADDER] + [
    ("so3", "200*H8 + 100*H6"),
    ("so3", "H40+H36+H30"),
    ("o3", "20*H5*"),
    ("so3", "S2(S2(S2(H2)))"),
]
FOLD_LIGHT = 300


def _light_fold_input(rng: random.Random) -> Tuple[str, str]:
    # The style of the acceptance suite's random specs: degree <= 12,
    # multiplicity 1-2, 1-5 labels; in o3 every label has -I acting as -Id.
    ctx = rng.choice(("so3", "o3"))
    terms = {}
    for _ in range(rng.randint(1, 5)):
        n = rng.randint(0, 12)
        label = f"H{n}*" if ctx == "o3" and n % 2 == 0 else f"H{n}"
        terms[label] = rng.randint(1, 2)
    expr = " + ".join(l if m == 1 else f"{m}*{l}" for l, m in terms.items())
    return ctx, expr


def fold_corpus() -> List[Tuple[str, str, str]]:
    """(ctx, expression, kind) for every fold input; kind is criterion,
    light or heavy.  Fixed: it does not depend on the workload seed."""
    out = [(ctx, expr, "criterion") for ctx, expr in CRITERIA]
    out += [(ctx, expr, "heavy") for ctx, expr in FOLD_HEAVY]
    seen = {(ctx, expr) for ctx, expr, _ in out}
    rng = random.Random(CORPUS_SEED)
    while len(out) < len(CRITERIA) + len(FOLD_HEAVY) + FOLD_LIGHT:
        ctx, expr = _light_fold_input(rng)
        if (ctx, expr) not in seen:
            seen.add((ctx, expr))
            out.append((ctx, expr, "light"))
    return out


def fold_key(ctx: str, expr: str) -> str:
    return f"{ctx}|{expr}"


class IsotropyFold(Workload):
    """isotropy_classes(RepSpec(ctx, parse_rep(e))) in process, warm."""

    name = "isotropy-fold"

    def load(self) -> None:
        import isoclips
        import isoclips.parsing
        import isoclips.symmetry

        self.iso = isoclips
        self.parsing = isoclips.parsing
        self.symmetry = isoclips.symmetry
        self.golden = json.loads(GOLDEN_FOLD.read_text())

    def prepare(self, seed: int) -> List[Op]:
        corpus = fold_corpus()
        ops = [
            Op(fold_key(ctx, expr), (ctx, expr), heavy=(kind == "heavy"))
            for ctx, expr, kind in _shuffled(corpus, seed)
        ]
        # Warm the clips caches with every light input once; heavy inputs
        # only add repeats of pairs their short prefixes already reach.
        for ctx, expr, kind in corpus:
            if kind != "heavy":
                self.execute(Op("", (ctx, expr)))
        return ops

    def execute(self, op: Op):
        ctx, expr = op.args
        content = self.parsing.parse_rep(expr)
        return self.symmetry.isotropy_classes(
            self.symmetry.RepSpec(self.iso.Context(ctx), content))

    def check(self, op: Op, result, exc) -> str:
        if exc is not None:
            return WRONG
        ctx, expr = op.args
        names = [self.iso.render_class(c) for c in result]
        want = CRITERIA.get((ctx, expr))
        if want is not None:
            return OK if sorted(names) == sorted(want) and len(names) == len(want) else WRONG
        good = (all(admissible(n, ctx) for n in names)
                and full_class(ctx) in names
                and names == self.golden.get(op.key))
        return OK if good else WRONG


# ---------------------------------------------------------------------------
# decompose-squares

# Rungs are closer together near the tail rank, as in the fold's k ladder.
SQUARE_OK_MULTS = (1, 2, 5, 10, 20, 50, 100, 150, 200, 250, 300, 350, 400, 500, 600, 900)
# Known defect: the flatten-and-recurse square decomposition recurses once
# per unit of multiplicity and hits the interpreter's recursion limit
# (first failure at k = 984 at plain call depth).
SQUARE_FAIL_MULTS = (1100, 1200)
RECURSION_DEFECT = "RecursionError in the recursive square decomposition"
SQUARE_RANDOM = 200
SQUARE_ARG_LIMIT = 900  # largest argument dimension of a generated square


def squares_corpus() -> List[Tuple[exprs.Node, Optional[str]]]:
    """(expression tree, known defect or None).  Fixed: it does not depend
    on the workload seed."""
    h1 = exprs.atom(1)
    out: List[Tuple[exprs.Node, Optional[str]]] = []
    for k in SQUARE_OK_MULTS:
        out += [(("S2", ("k", k, h1)), None), (("L2", ("k", k, h1)), None)]
    out += [(("S2", ("k", SQUARE_FAIL_MULTS[0], h1)), RECURSION_DEFECT),
            (("L2", ("k", SQUARE_FAIL_MULTS[1], h1)), RECURSION_DEFECT)]
    deep = exprs.atom(2)
    for _ in range(4):
        deep = ("S2", deep)
    out.append((deep, None))
    seen = {exprs.render(node) for node, _ in out}
    rng = random.Random(CORPUS_SEED)
    generated = 0
    while generated < SQUARE_RANDOM:
        node = exprs.random_square_expr(rng, depth=1 + generated % 4)
        text = exprs.render(node)
        # Arguments of at most 900 dimensions keep every square's recursion
        # (one level per unit of multiplicity) below the failure point.
        if text in seen or exprs.max_square_argument(node) > SQUARE_ARG_LIMIT:
            continue
        seen.add(text)
        out.append((node, None))
        generated += 1
    return out


class DecomposeSquares(Workload):
    """parse_rep alone on nested S2 / L2 / (x) expressions."""

    name = "decompose-squares"

    def load(self) -> None:
        import isoclips.parsing

        self.parsing = isoclips.parsing

    def prepare(self, seed: int) -> List[Op]:
        ops = []
        for node, defect in _shuffled(squares_corpus(), seed):
            text = exprs.render(node)
            heavy = defect is not None or exprs.max_square_argument(node) >= 600
            ops.append(Op(text, (text, exprs.dimension(node)), heavy=heavy,
                          known_defect=defect))
        self.parsing.parse_rep("S2(H1 + H2) (x) L2(H1)")
        return ops

    def execute(self, op: Op):
        return self.parsing.parse_rep(op.args[0])

    def check(self, op: Op, result, exc) -> str:
        if exc is not None:
            known = op.known_defect is not None and isinstance(exc, RecursionError)
            return KNOWN if known else WRONG
        return OK if result.dim == op.args[1] else WRONG


# ---------------------------------------------------------------------------
# cli-cold

_TERM = re.compile(r"^(?:(\d+)\*)?H(\d+)\*?$")


def sum_dimension(text: str) -> Optional[int]:
    """Dimension of a printed harmonic sum such as ``H4 + 2*H2 + 2*H0``."""
    total = 0
    for part in text.split("+"):
        m = _TERM.match(part.strip())
        if not m:
            return None
        total += int(m.group(1) or 1) * (2 * int(m.group(2)) + 1)
    return total


@dataclass(frozen=True)
class Command:
    argv: Tuple[str, ...]
    code: int  # documented exit code
    stdout: Optional[str] = None  # exact text the README states
    classes: Optional[Tuple[str, ...]] = None  # expected class set (any order)
    golden: Optional[str] = None  # fold golden key for the expected classes
    dimension: Optional[int] = None  # expected dimension of a decompose
    dot: Optional[str] = None  # file name written with --dot
    known_defect: Optional[str] = None


def _cli_commands() -> List[Command]:
    ela = tuple(ELASTICITY)
    piezo = tuple(CRITERIA[("o3", "H3 + H2* + 2*H1")])
    d2o2 = ("1", "Z2", "D2")
    cmds = [
        # The README's command-line examples, with --json and --dot variants.
        Command(("clips", "D2", "O(2)", "--ctx", "so3"), 0, stdout="1, Z2, D2"),
        Command(("clips", "D2", "O(2)", "--ctx", "so3", "--json"), 0, classes=d2o2),
        Command(("clips", "D2", "O(2)", "--ctx", "so3", "--dot", "clips.dot"), 0,
                stdout="1, Z2, D2", dot="clips.dot"),
        Command(("isotropy", "H4 + 2*H2 + 2*H0"), 0, classes=ela),
        Command(("isotropy", "H4 + 2*H2 + 2*H0", "--json"), 0, classes=ela),
        Command(("isotropy", "H4 + 2*H2 + 2*H0", "--dot", "iso.dot"), 0, classes=ela,
                dot="iso.dot"),
        Command(("isotropy", "H3 + H2* + 2*H1", "--ctx", "o3", "--json"), 0, classes=piezo),
        Command(("isotropy", "H3 + H2* + 2*H1", "--ctx", "o3"), 0, classes=piezo),
        Command(("irrep", "2", "--star", "--ctx", "o3"), 0),
        Command(("irrep", "2", "--star", "--ctx", "o3", "--json"), 0),
        Command(("decompose", "S2(S2(H1))"), 0, stdout="H4 + 2*H2 + 2*H0"),
        Command(("decompose", "S2(S2(H1))", "--json"), 0, dimension=21),
        Command(("poset", "H4 + 2*H2 + 2*H0", "--dot", "ela.dot"), 0, dot="ela.dot"),
        Command(("poset", "H4 + 2*H2 + 2*H0", "--json"), 0, classes=ela),
        Command(("verify", "Z6", "Z4", "--samples", "200", "--seed", "7"), 0),
        Command(("verify", "Z6", "Z4", "--samples", "200", "--seed", "7", "--json"), 0),
        # Heavier single commands.
        Command(("isotropy", "H40+H36+H30"), 0, golden=fold_key("so3", "H40+H36+H30")),
        Command(("isotropy", "20*H5*", "--ctx", "o3"), 0, golden=fold_key("o3", "20*H5*")),
        Command(("isotropy", "1000*H4", "--json"), 0, golden=fold_key("so3", "1000*H4")),
        Command(("decompose", "S2(S2(S2(S2(H2))))"), 0, dimension=26357430),
        Command(("decompose", "S2(S2(S2(H2)))", "--json"), 0, dimension=7260),
        Command(("verify", "I", "O", "--seed", "7"), 0),
        Command(("verify", "O^-", "D6^h", "--seed", "7", "--json"), 0),
        # Documented error exits.
        Command(("isotropy", "H4 +"), 2),
        Command(("clips", "D2", "Q7"), 2),
        Command(("isotropy", "H1 + H2", "--ctx", "o3"), 3),
        Command(("decompose", "S2(1200*H1)"), 0, dimension=3600 * 3601 // 2,
                known_defect=RECURSION_DEFECT),
    ]
    # The other acceptance sums, whose class sets are hand-written.
    for (ctx, expr), want in CRITERIA.items():
        if "S2" in expr or expr.startswith("H1 + H1"):
            continue
        if (ctx, expr) in (("so3", "H4 + 2*H2 + 2*H0"), ("o3", "H3 + H2* + 2*H1")):
            continue
        cmds.append(Command(("isotropy", expr, "--ctx", ctx, "--json"), 0,
                            classes=tuple(want)))
    cmds.append(Command(("poset", "H3 + H2* + 2*H1", "--ctx", "o3", "--json"), 0,
                        classes=piezo))
    return cmds


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    dot_text: Optional[str]


class CliCold(Workload):
    """One ``python -m isoclips`` process at a time over a fixed corpus."""

    name = "cli-cold"

    def load(self) -> None:
        self.golden = json.loads(GOLDEN_FOLD.read_text())
        self.env = program_env()
        self.max_child_kb = 0
        self.tmp: Optional[tempfile.TemporaryDirectory] = None

    def prepare(self, seed: int) -> List[Op]:
        self.close()
        self.tmp = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)
        ops = [
            Op(" ".join(cmd.argv), (cmd,), heavy=cmd.argv[0] == "verify"
               or cmd.known_defect is not None, known_defect=cmd.known_defect)
            for cmd in _shuffled(_cli_commands(), seed)
        ]
        # Load the interpreter and the package files into the page cache.
        self.execute(Op("", (Command(("decompose", "H1"), 0),)))
        return ops

    def close(self) -> None:
        if self.tmp is not None:
            self.tmp.cleanup()
            self.tmp = None

    def execute(self, op: Op) -> CliResult:
        cmd: Command = op.args[0]
        tmp = Path(self.tmp.name)
        argv = list(cmd.argv)
        if cmd.dot:
            argv[argv.index(cmd.dot)] = str(tmp / cmd.dot)
            (tmp / cmd.dot).unlink(missing_ok=True)
        env = self.env
        if self.tracer is not None:
            probe_out = tmp / "probe.json"
            probe_out.unlink(missing_ok=True)
            env = dict(env, PERFBENCH_PROBE_OUT=str(probe_out),
                       PERFBENCH_SPAWN_TIME=repr(time.time()))
            argv = [sys.executable, str(CLI_PROBE)] + argv
        else:
            argv = [sys.executable, "-m", "isoclips"] + argv
        with open(tmp / "stdout", "w+") as out, open(tmp / "stderr", "w+") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                    env=env, cwd=tmp)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            result = CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss, None)
        if cmd.dot and (tmp / cmd.dot).exists():
            result.dot_text = (tmp / cmd.dot).read_text()
        self.max_child_kb = max(self.max_child_kb, usage.ru_maxrss)
        if self.tracer is not None:
            self.tracer.cli_records.append(json.loads(probe_out.read_text()))
        return result

    def peak_rss_mb(self) -> float:
        return self.max_child_kb / 1024.0

    def check(self, op: Op, result: CliResult, exc) -> str:
        cmd: Command = op.args[0]
        if exc is not None:
            return WRONG
        if (cmd.known_defect is not None and result.code == 1
                and "RecursionError" in result.stderr):
            return KNOWN
        return OK if result.code == cmd.code and self._output_ok(cmd, result) else WRONG

    def _output_ok(self, cmd: Command, result: CliResult) -> bool:
        out = result.stdout.strip()
        if cmd.code != 0:
            return out == "" and result.stderr.strip() != ""
        if cmd.stdout is not None and out != cmd.stdout:
            return False
        if cmd.dot is not None and not (result.dot_text or "").startswith("digraph {"):
            return False
        as_json = "--json" in cmd.argv
        if as_json:
            try:
                doc = json.loads(out)
            except ValueError:
                return False
        if cmd.argv[0] == "verify":
            return doc["verdict"] == "pass" if as_json else out.endswith("verdict: pass")
        if cmd.dimension is not None:
            got = doc["dimension"] if as_json else sum_dimension(out)
            return got == cmd.dimension
        if cmd.argv[0] in ("clips", "isotropy", "irrep", "poset") and (
                as_json or cmd.argv[0] != "poset"):
            names = doc["classes"] if as_json else [s.strip() for s in out.split(",")]
            ctx = doc["context"] if as_json else ("o3" if "o3" in cmd.argv else "so3")
            if not all(admissible(n, ctx) for n in names):
                return False
            if cmd.classes is not None:
                return sorted(names) == sorted(cmd.classes)
            if cmd.golden is not None:
                return names == self.golden[cmd.golden]
            return cmd.argv[0] == "clips" or full_class(ctx) in names
        return bool(out) or cmd.dot is not None


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (OracleSweep, IsotropyFold, DecomposeSquares, CliCold)
}


def load_program() -> None:
    """Fail fast when the package sources are not next to the benchmark."""
    if not (SRC / "isoclips" / "__init__.py").is_file():
        raise FileNotFoundError(f"isoclips sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
