"""Path- and loop-sensitive lint rules on the advisor's CFG dataflow.

The first classes are programs a single linear walk over each scope gets
wrong: facts carried around a loop's back edge, a sync on only one arm
of a branch, and a free on a path that returns early.  The last class
checks the engine against a small concrete interpreter on random
straight-line programs, where one linear walk is exact.
"""

import textwrap

import pytest

from repro.analyze import lint_paths, lint_source
from repro.analyze.paths import python_files


def lint(code):
    return lint_source(textwrap.dedent(code), "snippet.py")


def line_of(code, text):
    """1-based line of the first line of *code* containing *text*."""
    lines = textwrap.dedent(code).splitlines()
    return next(i for i, line in enumerate(lines, 1) if text in line)


def found(findings):
    return {(f.rule, f.line) for f in findings}


class TestLoopCarried:
    def test_free_at_loop_bottom_reaches_uses_at_loop_top(self):
        code = """
            def f(hip, items):
                buf = hip.hipMalloc(1024)
                for _ in items:
                    hip.hipMemcpy(buf, buf)
                    hip.hipFree(buf)
        """
        copy, free = line_of(code, "hipMemcpy"), line_of(code, "hipFree")
        assert found(lint(code)) == {
            ("lint.use-after-free", copy),
            ("lint.double-free", free),
        }

    def test_free_inside_loop_is_a_double_free(self):
        code = """
            def f(hip, items):
                buf = hip.hipMalloc(1024)
                for _ in items:
                    hip.hipFree(buf)
        """
        (finding,) = lint(code)
        assert finding.rule == "lint.double-free"
        assert finding.line == line_of(code, "hipFree")
        assert finding.message == (
            f"'buf' is freed twice (first at line {finding.line})"
        )

    def test_launch_at_loop_bottom_is_pending_at_loop_top(self):
        code = """
            def f(hip, spec, items):
                for _ in items:
                    hip.runCpuKernel(spec)
                    hip.launchKernel(spec)
        """
        (finding,) = lint(code)
        assert finding.rule == "lint.missing-sync"
        assert finding.line == line_of(code, "runCpuKernel")
        assert f"from line {line_of(code, 'launchKernel')}" in finding.message

    def test_allocation_inside_the_loop_rebinds_the_name(self):
        findings = lint("""
            def f(hip, items):
                for _ in items:
                    buf = hip.hipMalloc(1024)
                    hip.hipMemcpy(buf, buf)
                    hip.hipFree(buf)
        """)
        assert findings == []


class TestBranches:
    def test_sync_on_one_arm_does_not_excuse_the_other(self):
        code = """
            def f(hip, spec, c):
                hip.launchKernel(spec)
                if c:
                    hip.hipDeviceSynchronize()
                hip.runCpuKernel(spec)
        """
        assert found(lint(code)) == {
            ("lint.missing-sync", line_of(code, "runCpuKernel")),
        }

    def test_sync_on_both_arms_is_clean(self):
        findings = lint("""
            def f(hip, spec, c):
                hip.launchKernel(spec)
                if c:
                    hip.hipDeviceSynchronize()
                else:
                    hip.hipStreamSynchronize(None)
                hip.runCpuKernel(spec)
        """)
        assert findings == []

    def test_free_on_a_returning_path_does_not_reach_the_rest(self):
        findings = lint("""
            def f(hip, c):
                buf = hip.hipMalloc(1024)
                if c:
                    hip.hipFree(buf)
                    return
                hip.hipMemcpy(buf, buf)
                hip.hipFree(buf)
        """)
        assert findings == []

    def test_free_on_one_arm_may_reach_a_use(self):
        code = """
            def f(hip, c):
                buf = hip.hipMalloc(1024)
                if c:
                    hip.hipFree(buf)
                hip.hipMemcpy(buf, buf)
        """
        assert found(lint(code)) == {
            ("lint.use-after-free", line_of(code, "hipMemcpy")),
        }


class TestOneFindingPerName:
    def test_name_used_twice_in_one_call_is_reported_once(self):
        findings = lint("""
            def f(hip):
                buf = hip.hipMalloc(1024)
                hip.hipFree(buf)
                hip.hipMemcpy(buf, buf)
        """)
        assert [f.rule for f in findings] == ["lint.use-after-free"]

    def test_two_freed_names_in_one_call_are_both_reported(self):
        findings = lint("""
            def f(hip):
                a = hip.hipMalloc(1024)
                b = hip.hipMalloc(1024)
                hip.hipFree(a)
                hip.hipFree(b)
                hip.hipMemcpy(a, b)
        """)
        messages = sorted(f.message for f in findings)
        assert len(messages) == 2
        assert messages[0].startswith("'a' is used after hipFree")
        assert messages[1].startswith("'b' is used after hipFree")


class TestNestedScopes:
    def test_nested_function_is_linted(self):
        code = """
            def outer(hip):
                def inner(items):
                    buf = hip.hipMalloc(1024)
                    for _ in items:
                        hip.hipFree(buf)
                return inner
        """
        assert found(lint(code)) == {
            ("lint.double-free", line_of(code, "hipFree")),
        }


class TestOnePathWalker:
    def test_file_named_twice_is_linted_once(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("hipBogusCall()\n")
        findings = lint_paths([tmp_path, bad])
        assert [f.rule for f in findings] == ["lint.unknown-api"]

    def test_walker_yields_each_file_once_and_honours_excludes(
        self, tmp_path
    ):
        (tmp_path / "a.py").write_text("")
        (tmp_path / "skip.py").write_text("")
        files = list(
            python_files([tmp_path, tmp_path / "a.py"], exclude=["skip.py"])
        )
        assert [f.name for f in files] == ["a.py"]


# ----------------------------------------------------------------------
# Differential test against a concrete interpreter
# ----------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

NAMES = ("a", "b")

#: Statement templates; ``{n}`` / ``{m}`` are buffer names.
STATEMENTS = (
    ("alloc-explicit", "{n} = hip.hipMalloc(64)"),
    ("alloc-managed", "{n} = hip.hipMallocManaged(64)"),
    ("free", "hip.hipFree({n})"),
    ("launch", "hip.launchKernel(spec)"),
    ("sync", "hip.hipDeviceSynchronize()"),
    ("copy", "hip.hipMemcpy({n}, {m})"),
    ("host", "hip.runCpuKernel(spec)"),
    ("np", "x = {n}.np"),
    ("rebind", "{n} = None"),
)

statement = st.tuples(
    st.sampled_from(STATEMENTS), st.sampled_from(NAMES),
    st.sampled_from(NAMES),
)
program = st.tuples(
    st.lists(statement, max_size=12), st.sampled_from(NAMES + (None,))
)


def render(stmts, returned):
    lines = [
        "def f(spec):",
        "    hip = make_runtime(memory_gib=1)",
    ]
    for (_, template), n, m in stmts:
        lines.append("    " + template.format(n=n, m=m))
    if returned is not None:
        lines.append(f"    return {returned}")
    return "\n".join(lines) + "\n"


def interpret(stmts, returned):
    """The lint findings of one straight-line program, by direct
    simulation of names, frees and pending work."""
    out = set()
    alloc_line = {}  # name -> line of the allocation it holds
    freed = {}  # name -> line of its first free since binding
    models = {}  # name -> memory model of its last allocation
    pending = None  # line of the first launch since the last sync

    def use(name, line):
        if name in freed:
            out.add((
                "lint.use-after-free", line,
                f"{name!r} is used after hipFree (freed at line "
                f"{freed[name]})",
            ))
            return True
        return False

    for line, ((kind, _), n, m) in enumerate(stmts, start=3):
        if kind.startswith("alloc"):
            model = "explicit" if kind == "alloc-explicit" else "managed"
            if models.get(n, model) != model:
                out.add((
                    "lint.mixed-model", line,
                    f"buffer {n!r} is allocated through both the "
                    f"{models[n]} and {model} memory models",
                ))
            models[n] = model
            alloc_line[n] = line
            freed.pop(n, None)
        elif kind == "free":
            if n in freed:
                out.add((
                    "lint.double-free", line,
                    f"{n!r} is freed twice (first at line {freed[n]})",
                ))
            else:
                if pending is not None:
                    out.add((
                        "lint.free-before-sync", line,
                        f"hipFree while asynchronous work from line "
                        f"{pending} may still be in flight",
                    ))
                freed[n] = line
        elif kind == "launch":
            pending = pending or line
        elif kind == "sync":
            pending = None
        elif kind == "copy":
            use(n, line)
            use(m, line)
            pending = None
        elif kind == "host" and pending is not None:
            out.add((
                "lint.missing-sync", line,
                f"host compute while asynchronous work from line "
                f"{pending} may still be in flight",
            ))
        elif kind == "np":
            if not use(n, line) and n in alloc_line and pending:
                out.add((
                    "lint.missing-sync", line,
                    f"host access to {n!r}.np while asynchronous work "
                    f"from line {pending} may still be in flight",
                ))
        elif kind == "rebind":
            alloc_line.pop(n, None)
            freed.pop(n, None)
    for n, line in alloc_line.items():
        if n not in freed and n != returned:
            out.add((
                "lint.leaked-alloc", line,
                f"allocation {n!r} is never freed in this scope",
            ))
    return out


@settings(max_examples=150, deadline=None)
@given(program)
def test_engine_matches_concrete_interpreter_on_straight_line_code(prog):
    stmts, returned = prog
    findings = lint_source(render(stmts, returned), "prog.py")
    assert {(f.rule, f.line, f.message) for f in findings} == interpret(
        stmts, returned
    )
