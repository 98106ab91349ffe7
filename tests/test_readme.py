"""The README's library quick start and CLI examples run, each documented
result holds, the `realgw.signs` row names the predicates `verify`
reaches, and the `--bounds` cap table is `realgw.graphs.BOUND_CAPS`."""

import ast
import inspect
import json
import re
import shlex
from pathlib import Path

from realgw import signs, verify
from realgw.cli import main
from realgw.graphs import BOUND_CAPS

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_block() -> str:
    text = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_quick_start_results():
    source = quick_start_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        # the documented result: a comment after the expression, or on the next line
        rest = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        if not rest and node.end_lineno < len(lines):
            rest = lines[node.end_lineno].strip()
        assert rest.startswith("# "), f"no documented result for line {node.lineno}"
        documented = rest[2:]
        shown = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
        # the result, optionally followed by a colon and a note
        assert re.fullmatch(re.escape(shown) + "(:.*)?", documented), (node.lineno, shown)
        checked += 1
    assert checked == 5


def test_signs_row_names_what_verify_reaches(monkeypatch):
    rows = README.read_text(encoding="utf-8").splitlines()
    row = next(line for line in rows if line.startswith("| `realgw.signs` |"))
    verify_row = next(line for line in rows if line.startswith("| `realgw.verify` |"))
    match = re.search(
        r"evaluate the kernels of (\d+) predicates: (.*?); "
        r"no identity reaches the other (\d+): (.*?) \|$",
        row,
    )
    assert match, row
    n_reached, reached_text, n_unreached, unreached_text = match.groups()
    reached = re.findall(r"`(\w+)`", reached_text)
    unreached = re.findall(r"`(\w+)`", unreached_text)

    def predicates(names) -> set:
        return {name[: -len("_exponent")] for name in names if name.endswith("_exponent")}

    # a predicate is reached when some identity's sweep calls its kernel, on
    # the first point of its default grid; a kernel it only names is not
    swept = set()

    def recorded(name, kernel):
        def call(*args, **kwargs):
            swept.add(name)
            return kernel(*args, **kwargs)
        return call

    for name, value in list(vars(verify).items()):
        if name.endswith("_exponent") or name in ("eps_conv", "eps_factor"):
            monkeypatch.setattr(verify, name, recorded(name, value))
    for check in verify.ALL_CHECKS.values():
        check([tuple(values[0] for values in inspect.getclosurevars(check).nonlocals["ranges"])])
    assert set(reached) == predicates(swept)
    assert set(unreached) == predicates(vars(signs)) - predicates(swept)
    assert (int(n_reached), int(n_unreached)) == (len(reached), len(unreached))
    # and the verify row names the convention exponents the sweeps call
    assert set(re.findall(r"`(eps_\w+)`", verify_row)) == {n for n in swept if n.startswith("eps_")}


def cli_examples() -> list[tuple[list[str], str]]:
    """The README's `realgw coeff|dim|sign` lines, each with the comment
    line after it (or "")."""
    text = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", text, re.S).group(1).splitlines()
    examples = []
    for i, line in enumerate(lines):
        if re.match(r"realgw (coeff|dim|sign) ", line):
            after = lines[i + 1] if i + 1 < len(lines) else ""
            examples.append((shlex.split(line)[1:], after))
    return examples


def test_cli_examples_run(capsys):
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["coeff", "dim", "sign", "sign", "sign"]
    for argv, after in examples:
        assert main(argv) == 0, argv
        doc = json.loads(capsys.readouterr().out)
        if argv[0] in ("coeff", "dim"):
            assert after.startswith("# ") and doc == json.loads(after[2:]), argv


def test_cap_table_is_bound_caps():
    table = README.read_text(encoding="utf-8").split("| bound | cap | bound | cap |", 1)[1]
    rows = re.findall(r"\| `(\w+)` \| (\d+) ", table.split("\n\n", 1)[0])
    assert len(rows) == len(BOUND_CAPS)
    assert {name: int(cap) for name, cap in rows} == BOUND_CAPS
