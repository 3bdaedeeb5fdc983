"""Repository checks that are not about behaviour: one table of
architecture invariants, and the documentation lints in ``tools/``.

Each row of :data:`INVARIANTS` keeps one structure that a refactor made
single from coming back: a deleted module, a second copy of a table, a
knob nothing calls.  A row searches text, line by line, with one rule:

* ``forbid`` — no line may match;
* ``at_most`` — ``(pattern, n)``: at most *n* lines may match;
* ``require`` — some line must match.

A hit is allowed when an ``exempt`` pattern matches its location
``"<path>:<qualname>: <stripped line>"`` (``qualname`` is the innermost
function or class around the line, empty outside one or in a non-Python
file).  A row with a ``scope`` (``module:Class.method``) searches that
function's source alone.

Every row carries a seeded ``example`` violation ``(path, line)`` that
must trip it: a ``forbid``/``at_most`` row gets the line added
``n + 1`` times at the end of the file (of the function, for a scoped
row); a ``require`` row gets every matching line of the file replaced
by it.  A new guard is a new row with an example.

    pytest tests/test_invariants.py
"""

from __future__ import annotations

import ast
import importlib.util
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Invariant:
    """One architecture invariant: where to look and what may not be
    there (or must be)."""

    name: str
    #: The change (by its commit title) that made the structure single.
    origin: str
    #: Repo-relative files or directories searched (empty for a scoped
    #: row: the scope names its file).
    paths: tuple[str, ...]
    example: tuple[str, str]
    forbid: str | None = None
    at_most: tuple[str, int] | None = None
    require: str | None = None
    exempt: tuple[str, ...] = ()
    #: File-name glob under a searched directory.
    include: str = "*"
    scope: str | None = None

    def __post_init__(self):
        rules = [self.forbid, self.at_most, self.require]
        assert sum(rule is not None for rule in rules) == 1, self.name
        assert bool(self.paths) != bool(self.scope), self.name

    @property
    def pattern(self) -> str:
        return self.forbid or self.require or self.at_most[0]

    @property
    def limit(self) -> int:
        return self.at_most[1] if self.at_most else 0


_ALU_OPS = ("binary|int_binary|float_binary|mul|mul_mad|mad|fma|divrem_int|"
            "neg|mov|setp|selp|sfu|shl|shr|shift|brev|cvt")

INVARIANTS: tuple[Invariant, ...] = (
    # functional/fastpath.py stays deleted.
    Invariant(
        "fastpath_module_stays_deleted",
        "One scalar semantics table", ("src",),
        forbid=r"functional\.fastpath|functional import .*fastpath",
        example=("src/repro/functional/superblock.py",
                 "from repro.functional import fastpath")),
    # Per-tier register-op emitters stay deleted.
    Invariant(
        "no_per_tier_alu_emitters",
        "One ALU emitter table",
        ("src/repro/functional/superblock.py",
         "src/repro/functional/megablock.py"),
        forbid=rf"^def (_e_|_emit_)({_ALU_OPS})\b",
        example=("src/repro/functional/megablock.py",
                 "def _e_fma(inst): pass")),
    # Per-tier ld/st renderers and the sanitizer's per-tier rule twins
    # stay deleted.
    Invariant(
        "no_per_tier_ld_st_renderers",
        "Memory access written once", ("src",),
        forbid=r"^def (_emit_ld_st|_e_ld|_e_st)\b",
        example=("src/repro/functional/superblock.py",
                 "def _emit_ld_st(inst): pass")),
    Invariant(
        "no_per_tier_sanitizer_rules",
        "Memory access written once", ("src",),
        forbid=r"def (_san_global|_san_shared|_san_bar|_check_global|"
               r"_check_shared|dense_init|absorb_dense)\b",
        example=("src/repro/sanitize/shadow.py",
                 "def _san_global(lanes): pass")),
    # Engines are built by the launch path's owners only; the wrapper
    # backend, the runtime skip knob and the second hook kind stay
    # deleted.
    Invariant(
        "engines_built_by_launch_path_owners",
        "One functional launch path", ("src",),
        include="*.py", forbid=r"FunctionalEngine\(",
        exempt=(r"^src/repro/(cuda/runtime|timing/gpu|debugtool/golden|"
                r"harness/hwmodel)\.py:",),
        example=("src/repro/service/pool.py",
                 "engine = FunctionalEngine(launch)")),
    Invariant(
        "no_wrapper_backend_skip_knob_or_second_hook",
        "One functional launch path; one per-instruction hook", ("src",),
        include="*.py",
        forbid=r"_ControlledBackend|skip_kernels_below|exec_override|"
               r"launch_hooks|make_hooks",
        example=("src/repro/cuda/runtime.py", "skip_kernels_below = 0")),
    # One application pass, one capture: the debug flow has no
    # runtime-smuggling box and one launch snapshot; the step observer
    # is composed in the engine constructor only.
    Invariant(
        "no_runtime_smuggling_box",
        "The debugging methodology written once", ("src/repro/debugtool",),
        forbid=r"box\[0\]",
        example=("src/repro/debugtool/bisect.py", "runtime = box[0]")),
    Invariant(
        "one_launch_snapshot",
        "The debugging methodology written once", ("src/repro/debugtool",),
        at_most=(r"global_mem.snapshot\(\)", 1),
        example=("src/repro/debugtool/bisect.py",
                 "memory = runtime.global_mem.snapshot()")),
    Invariant(
        "step_observer_composed_in_engine_constructor",
        "The debugging methodology written once", ("src/repro/functional",),
        forbid=r"\bon_exec = ",
        exempt=(r"^src/repro/functional/executor\.py:"
                r"FunctionalEngine\.__init__: self\.on_exec = observer$",),
        example=("src/repro/functional/superblock.py",
                 "engine.on_exec = spy")),
    # GlobalMemory.digest is the one allocation digest; the pool's
    # unused knobs stay deleted.
    Invariant(
        "one_digest_no_unused_pool_knobs",
        "The embedded kernel corpus written once", ("src",),
        include="*.py",
        forbid=r"def _digest_allocations|mp_context|trace_shards",
        example=("src/repro/service/pool.py", "mp_context = None")),
    # Per-opcode facts are fields of ptx/instructions.TABLE: no opcode
    # sets or width rules elsewhere, no opcode names in the timing
    # classifier.
    Invariant(
        "opcode_facts_only_in_instruction_table",
        "One instruction-set table", ("src/repro",),
        include="*.py",
        forbid=r"(_SIGNATURES|_NO_DTYPE|_KNOWN_OPCODES|NO_DEST|_dest_bits|"
               r"_src_bits)\b|^_CONTROL\b",
        exempt=(r"^src/repro/ptx/instructions/",),
        example=("src/repro/analysis/verifier.py",
                 "_KNOWN_OPCODES = frozenset()")),
    Invariant(
        "no_opcode_names_in_timing",
        "One instruction-set table", ("src/repro/timing",),
        include="*.py", forbid=r"[\"'](atom|red)[\"']",
        example=("src/repro/timing/stream.py",
                 "ATOMICS = (\"atom\", \"red\")")),
    # Every derived fact is memoised in Kernel.derived by its owner: no
    # ad-hoc kernel caches or prepare_kernel; exit reconvergence is an
    # engine setting only.
    Invariant(
        "no_ad_hoc_kernel_caches",
        "One home for what a kernel's body implies", ("src/repro",),
        include="*.py",
        forbid=r'prepare_kernel|getattr\((self\.)?kernel, "_|'
               r"kernel\._[A-Za-z_]+ =",
        exempt=(r"^src/repro/ptx/ast\.py:",),
        example=("src/repro/functional/megablock.py", "kernel._plan = None")),
    Invariant(
        "exit_reconvergence_is_an_engine_setting",
        "One home for what a kernel's body implies",
        ("src/repro/functional/cfg.py", "src/repro/functional/megablock.py",
         "src/repro/analysis"),
        forbid=r"reconverge_at_exit",
        example=("src/repro/functional/cfg.py",
                 "reconverge_at_exit = False")),
    # executor.admit alone picks a launch's tier and says why; the
    # request is never overwritten and the timing model always requests
    # megablock.
    Invariant(
        "admit_alone_says_why",
        "One admission decision", ("src",),
        forbid=r"_live_reason|scalar_why|_user_hooked|megablock_fallback|"
               r"ran_why",
        example=("src/repro/timing/gpu.py", "scalar_why = None")),
    Invariant(
        "engine_never_overwrites_the_requested_tier",
        "One admission decision", (),
        scope="repro.functional.executor:FunctionalEngine.__init__",
        forbid=r"^\s+fast_mode = ",
        example=("src/repro/functional/executor.py",
                 "        fast_mode = \"reference\"")),
    Invariant(
        "one_reader_of_alters_instructions",
        "One admission decision",
        ("src/repro/functional", "src/repro/timing"),
        at_most=(r"alters_instructions", 1),
        example=("src/repro/timing/gpu.py",
                 "quirky = quirks.alters_instructions")),
    Invariant(
        "timing_never_branches_on_restored",
        "One admission decision", ("src/repro/timing/gpu.py",),
        forbid=r"\b(if|else)\b.*restored|restored.*\b(if|else)\b",
        example=("src/repro/timing/gpu.py",
                 "tier = \"superblock\" if restored else \"megablock\"")),
    Invariant(
        "timing_always_requests_megablock",
        "One admission decision", ("src/repro/timing/gpu.py",),
        forbid=r"fast_mode=", exempt=(r'fast_mode="megablock"',),
        example=("src/repro/timing/gpu.py",
                 "backend = FunctionalBackend(fast_mode=\"superblock\")")),
    # cudnn/api.ALGORITHMS holds each direction's algorithms,
    # requirements and pipelines: no dispatch chains, copied checks or
    # parallel algorithm lists.
    Invariant(
        "no_algorithm_dispatch_chains",
        "The cuDNN convolution host side as one algorithm table",
        ("src/repro/cudnn",),
        forbid=r"(el)?if algo (is|in) ",
        example=("src/repro/cudnn/api.py", "if algo is None: pass")),
    Invariant(
        "one_fft_tile_requirement",
        "The cuDNN convolution host side as one algorithm table", ("src",),
        at_most=(r"filter larger than FFT tile", 1),
        example=("src/repro/cudnn/api.py",
                 "REASON = \"filter larger than FFT tile\"")),
    Invariant(
        "no_parallel_algorithm_lists",
        "The cuDNN convolution host side as one algorithm table",
        ("src", "benchmarks"),
        forbid=r"PAPER_(FWD|BWD_DATA|BWD_FILTER)_ALGOS",
        example=("benchmarks/experiments.py", "PAPER_FWD_ALGOS = ()")),
    # One connection per client thread, one write per reply: the client
    # keeps its connection alive, the server buffers each reply with
    # Nagle off, and megablock builds only the special-register columns
    # a kernel reads.
    Invariant(
        "client_keeps_its_connection",
        "A short job's round trip costs its simulation",
        ("src/repro/service/client.py",),
        forbid=r"urllib\.request",
        example=("src/repro/service/client.py", "import urllib.request")),
    Invariant(
        "replies_sent_with_nagle_off",
        "A short job's round trip costs its simulation",
        ("src/repro/service/rest.py",),
        require=r"disable_nagle_algorithm = True",
        example=("src/repro/service/rest.py",
                 "    disable_nagle_algorithm = False")),
    Invariant(
        "only_the_special_columns_a_kernel_reads",
        "A short job's round trip costs its simulation",
        ("src/repro/functional/state.py",),
        forbid=r'"specials"',
        example=("src/repro/functional/state.py",
                 "CACHE_KEY = \"specials\"")),
    # The second wake scan, the per-SM stall re-classification and the
    # dead residency knob stay deleted.
    Invariant(
        "issue_loop_pays_per_issue",
        "Performance mode pays per issue", ("src",),
        forbid=r"def (earliest|stalled|charge_stalls)\b|max_warps_per_sm",
        example=("src/repro/timing/shader.py", "max_warps_per_sm = 64")),
)


# -- The checker --------------------------------------------------------

def _files(row: Invariant, root: Path) -> list[str]:
    """Repo-relative paths a row searches, sorted."""
    if row.scope:
        module = row.scope.split(":")[0]
        return ["src/" + module.replace(".", "/") + ".py"]
    found = []
    for name in row.paths:
        path = root / name
        if path.is_file():
            found.append(name)
            continue
        assert path.is_dir(), f"{row.name}: no {name}"
        found += [p.relative_to(root).as_posix()
                  for p in path.rglob(row.include)
                  if p.is_file() and "__pycache__" not in p.parts]
    return sorted(found)


def _definitions(text: str):
    """``(qualname, first line, last line)`` of every function and
    class in *text*, outermost first."""
    try:
        tree = ast.parse(text)
    except SyntaxError:
        return []
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                found.append((name, child.lineno, child.end_lineno))
                walk(child, name + ".")
            elif isinstance(child, (ast.stmt, ast.excepthandler,
                                    ast.match_case)):
                walk(child, prefix)  # a def never sits in an expression
    walk(tree, "")
    return found


def _span(row: Invariant, text: str) -> tuple[int, int]:
    """1-based line range of the row's scope in *text*."""
    qualname = row.scope.split(":")[1]
    for name, first, last in _definitions(text):
        if name == qualname:
            return first, last
    raise AssertionError(f"{row.name}: scope {row.scope} not found")


def _seed(row: Invariant, text: str) -> str:
    """*text* with the row's example violation applied."""
    line = row.example[1]
    lines = text.split("\n")
    if row.require:
        return "\n".join(line if re.search(row.pattern, old) else old
                         for old in lines)
    at = _span(row, text)[1] if row.scope else len(lines)
    if not row.scope and lines[-1] == "":
        at -= 1  # before the final newline
    return "\n".join(lines[:at] + [line] * (row.limit + 1) + lines[at:])


def violations(row: Invariant, root: Path = ROOT,
               seeded: bool = False) -> list[str]:
    """Why *row* does not hold under *root* (empty when it holds); with
    *seeded*, on the tree plus the row's example."""
    pattern = re.compile(row.pattern, re.MULTILINE)
    hits = []
    matched = False
    for name in _files(row, root):
        text = (root / name).read_bytes().decode("utf-8", "replace")
        if seeded and name == row.example[0]:
            text = _seed(row, text)
        if not pattern.search(text):
            continue  # no line can match either
        lines = text.split("\n")
        first, last = _span(row, text) if row.scope else (1, len(lines))
        definitions = None
        for number in range(first, last + 1):
            line = lines[number - 1]
            if not pattern.search(line):
                continue
            matched = True
            if row.exempt:
                if definitions is None:
                    definitions = (_definitions(text)
                                   if name.endswith(".py") else [])
                qualname = next((q for q, lo, hi in reversed(definitions)
                                 if lo <= number <= hi), "")
                where = f"{name}:{qualname}: {line.strip()}"
                if any(re.search(allowed, where) for allowed in row.exempt):
                    continue
            hits.append(f"{name}:{number}: {line.strip()}")
    if row.require:
        return [] if matched else [f"no line matches {row.pattern!r}"]
    return hits if len(hits) > row.limit else []


@pytest.mark.parametrize("row", INVARIANTS, ids=lambda row: row.name)
def test_invariant_holds(row):
    assert violations(row) == [], f"{row.name} ({row.origin})"


@pytest.mark.parametrize("row", INVARIANTS, ids=lambda row: row.name)
def test_invariant_trips_on_its_example(row):
    assert row.example[0] in _files(row, ROOT), row.example
    assert violations(row, seeded=True), row.example


# -- The documentation lints ----------------------------------------------

@pytest.mark.parametrize("tool, args", [
    ("docstring_coverage", (["--check"],)),
    ("check_experiments_index", ()),
    ("check_operations_doc", ()),
])
def test_doc_lint_passes(tool, args, capsys):
    spec = importlib.util.spec_from_file_location(
        tool, ROOT / "tools" / f"{tool}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    code = module.main(*args)
    assert code == 0, capsys.readouterr()
