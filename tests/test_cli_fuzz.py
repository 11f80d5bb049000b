"""Fuzzing the CLI in-process: every argv ends with exit 0, 2 or 3.

One slice covers the `family` subcommand in its three modes (rescaling,
family file, joining search) with short scalar lists that hold 0,
negatives, Gaussian values and repeats.  Another covers the germ
subcommands `mult`, `milnor` and `discriminate` on expressions, inline or
as @file, some wrapped in up to 1200 levels of parentheses or unary signs
and some with a stray character; `milnor` runs each of its three methods,
and some germs in x and y are read in x, y, z, so that cylinders reach
the oracle.  The third covers `foliation` on one to
three components in x and y, in two variables or, with `--vars x,y,z`,
three, some with a stray character.  The fourth covers `zeta` and
`charpoly`: `--fermat` with small, zero, negative and non-integer l and n,
hostile `--res` files (non-lists, wrong keys, bools, floats, duplicate m,
chi = 0, over-long integers, deep nesting) and the `--n`, `--K` and `--mu`
values.  Hypothesis runs derandomised (see conftest.py), so every run sees
the same examples.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from germinv.cli import main

SCALARS = st.sampled_from(["0", "1", "-1", "2", "-3", "1/2", "-3/4", "1/3",
                           "i", "-i", "1+i", "1/2-3*i", "0*i"])
SCALAR_LISTS = st.lists(SCALARS, min_size=1, max_size=3).map(",".join)
LINES = st.one_of(st.lists(SCALARS, min_size=2, max_size=2).map(",".join), SCALAR_LISTS)
MONOMIALS = st.sampled_from(["x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y", "x*y^2",
                             "y^3", "x^4", "x^3*y", "x*y^3", "y^4", "x^5", "y^5"])
COEFFS = st.sampled_from(["1", "-1", "2", "-3", "1/2", "i", "1-i"])


@st.composite
def homogeneous_forms(draw):
    degree = draw(st.integers(2, 4))
    monomials = [f"x^{degree - j}*y^{j}" for j in range(degree + 1)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=4))
    return " + ".join(f"({draw(COEFFS)})*{m}" for m in chosen)


@st.composite
def random_polys(draw):
    terms = draw(st.lists(st.tuples(COEFFS, MONOMIALS), min_size=1, max_size=4))
    return " + ".join(f"({c})*{m}" for c, m in terms)


POLYS = st.one_of(homogeneous_forms(), random_polys())


@st.composite
def family_argv(draw):
    mode = draw(st.sampled_from(["rescale", "file", "find-alpha"]))
    argv = ["family"]
    family_file = None
    if mode == "file":
        pieces = draw(st.lists(st.tuples(POLYS, st.integers(0, 3)), min_size=1, max_size=3))
        family_file = json.dumps({"vars": ["x", "y"],
                                  "pieces": [{"poly": p, "tpower": k} for p, k in pieces]})
    else:
        argv.append(f"--{mode}={draw(POLYS)}")
    if draw(st.booleans()):
        argv.append(f"--ts={draw(SCALAR_LISTS)}")
    if mode == "find-alpha":
        if draw(st.booleans()):
            argv.append(f"--candidates={draw(SCALAR_LISTS)}")
    elif draw(st.booleans()):
        argv.append(f"--line={draw(LINES)}")
    elif draw(st.booleans()):
        argv.append("--find-line")
    return argv, family_file


STRAYS = st.sampled_from(["$", ".", "_", "#", "\u00e9", "\u00a0", "(", ")", "^", "*", "/"])


@st.composite
def expressions(draw):
    """An expression from POLYS, perhaps nested deeply or with a stray character."""
    text = draw(POLYS)
    depth = draw(st.one_of(st.sampled_from([0, 300, 1200]), st.integers(0, 1200)))
    wrap = draw(st.sampled_from(["parentheses", "-", "+", "+-"]))
    if wrap == "parentheses":
        text = "(" * depth + text + ")" * depth
    else:
        text = (wrap * depth)[:depth] + "(" + text + ")"
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(STRAYS) + text[at:]
    return text


@st.composite
def germ_argv(draw):
    """The subcommand and options for mult, milnor or discriminate, and the
    expressions to write to files: each argument is an expression inline
    or a path for it."""
    command = draw(st.sampled_from(["mult", "milnor", "discriminate"]))
    options = ["--vars", "x,y,z"] if draw(st.booleans()) else []
    if command == "milnor":
        options.append("--method=" + draw(st.sampled_from(
            ["standard-basis", "truncated-oracle", "class-A-fast-path"])))
    texts = [draw(expressions()) for _ in range(2 if command == "discriminate" else 1)]
    as_files = [draw(st.booleans()) for _ in texts]
    return [command, *options], texts, as_files


@st.composite
def foliation_argv(draw):
    """argv for foliation: 1-3 components, perhaps in three variables, one
    of them perhaps with a stray character."""
    components = draw(st.lists(random_polys(), min_size=1, max_size=3))
    if draw(st.booleans()):
        index = draw(st.integers(0, len(components) - 1))
        text = components[index]
        at = draw(st.integers(0, len(text)))
        components[index] = text[:at] + draw(STRAYS) + text[at:]
    options = ["--vars", "x,y,z"] if draw(st.booleans()) else []
    return ["foliation", *options, "--", *components]


# two draws in three are small plain integers, so some argv get past the checks
INTEGERS = st.one_of(st.integers(-1, 5).map(str), st.integers(1, 4).map(str), st.sampled_from(
    ["-4", "1/2", "2.5", "i", "2^2", "", "x", "10^40", "5000", "5001"]))
CUSP = '[{"m": 2, "chi": 1}, {"m": 3, "chi": 1}, {"m": 6, "chi": -1}]'
JSON_NUMBERS = st.one_of(st.integers(-30, 30), st.sampled_from(
    ["true", "false", "2.0", "-1.5", "1e3", "null", '"3"', "1" + "0" * 5000]))


@st.composite
def strata_files(draw):
    """The text of a --res file: mostly a list of {m, chi} strata, small m
    and |chi| (so duplicate m and chi = 0 come up), some of it hostile."""
    kind = draw(st.sampled_from(["known", "strata", "strata", "scalar", "nested"]))
    if kind == "known":  # the cusp's, or a homogeneous germ's in n = 2 or 3
        l = draw(st.integers(2, 6))
        return draw(st.sampled_from([CUSP, f'[{{"m": {l}, "chi": {2 - l}}}]',
                                     f'[{{"m": {l}, "chi": {3 - 3 * l + l * l}}}]']))
    if kind == "scalar":
        return draw(st.sampled_from(['{"m": 2, "chi": 1}', "3", '"strata"', "null", "{}", ""]))
    if kind == "nested":
        depth = draw(st.sampled_from([50, 100_000]))
        return "[" * depth + "]" * depth
    entries = []
    for _ in range(draw(st.integers(0, 4))):
        m, chi = draw(st.integers(1, 24)), draw(st.integers(-24, 24))
        shape = draw(st.sampled_from(["ok", "ok", "ok", "values", "keys", "other"]))
        if shape == "values":
            m, chi = draw(JSON_NUMBERS), draw(JSON_NUMBERS)
        if shape == "keys":
            entries.append(draw(st.sampled_from([f'{{"m": {m}}}', f'{{"M": {m}, "chi": {chi}}}',
                                                 f'{{"m": {m}, "chi": {chi}, "x": 1}}'])))
        elif shape == "other":
            entries.append(draw(st.sampled_from(["1", "[]", '"m"', "null", f"[{m}, {chi}]"])))
        else:
            entries.append(f'{{"m": {m}, "chi": {chi}}}')
    return "[" + ", ".join(entries) + "]"


@st.composite
def monodromy_argv(draw):
    """argv for zeta or charpoly, and the --res file's text if there is one."""
    command = draw(st.sampled_from(["zeta", "charpoly"]))
    argv = [command]
    source = draw(st.sampled_from(["fermat", "fermat", "res", "res", "both", "none"]))
    if source in ("fermat", "both"):
        parts = [f"l={draw(INTEGERS)}", f"n={draw(INTEGERS)}"]
        if draw(st.booleans()):
            parts = draw(st.permutations(parts + draw(st.sampled_from([[], ["n=2"], ["k=1"]]))))
        argv.append("--fermat=" + ",".join(parts))
    text = draw(strata_files()) if source in ("res", "both") else None
    # --n is for --res and refused with --fermat, so there it comes up less
    if draw(st.integers(0, 3)) >= (3 if source == "fermat" else 1):
        argv.append(f"--n={draw(INTEGERS)}")
    if draw(st.booleans()):
        argv.append(f"{'--K' if command == 'zeta' else '--mu'}={draw(INTEGERS)}")
    return argv, text


def run_main(argv):
    """main(argv) with its output captured; argparse's exit counts as a return."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200)
@given(family_argv())
def test_family_argv_ends_with_a_documented_exit_code(case):
    argv, family_file = case
    with tempfile.TemporaryDirectory() as tmp:
        if family_file is not None:
            path = os.path.join(tmp, "family.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(family_file)
            argv = [*argv, f"--file={path}"]
        code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert not out
    else:
        json.loads(out)


@settings(max_examples=150)
@given(germ_argv())
def test_germ_argv_ends_with_a_documented_exit_code(case):
    head, texts, as_files = case
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for index, (text, as_file) in enumerate(zip(texts, as_files)):
            if as_file:
                path = os.path.join(tmp, f"expr{index}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                text = f"@{path}"
            args.append(text)
        code, out, err = run_main([*head, "--", *args])
    assert code in (0, 2, 3), (head, texts, code, err)
    assert "Traceback" not in err
    if code:
        assert not out
    else:
        json.loads(out)


@settings(max_examples=150)
@given(foliation_argv())
def test_foliation_argv_ends_with_a_documented_exit_code(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code:
        assert not out
    else:
        json.loads(out)


@settings(max_examples=200)
@given(monodromy_argv())
def test_monodromy_argv_ends_with_a_documented_exit_code(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = os.path.join(tmp, "strata.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = [*argv, f"--res={path}"]
        code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, text, code, err)
    assert "Traceback" not in err
    if code:
        assert not out
    else:
        json.loads(out)
