"""Arbitrary network files through the CLI: every run must end in one of
the documented exit codes 0-5, never in an exception."""

import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from beliefprop.cli import run

COMMANDS = (["validate"], ["infer"], ["cutset"], ["dsep", "--x", "A", "--y", "B"])

# Declarations, then blocks of the .bn grammar, whole and broken, so that
# examples get past the parser and reach validation and inference.
DECLARATIONS = ["var A : f t", "var B : f t", "var C : 0 1 2"]
BLOCKS = [
    "net n", "# comment", "var A : f", "var : f t", "var B : f t",
    "cpt A :\n  0.5 0.5", "cpt A :\n  1 0", "cpt C :\n  0.3 0.3 0.4",
    "cpt B | A :\n  f : 0.9 0.1\n  t : 0.2 0.8", "cpt B | A :\n  f : 1 0\n  t : 0 1",
    "cpt A | B :\n  f : 0.5 0.5\n  t : 0.5 0.5",
    "cpt C | A B :\n  f f : 0.5 0.2 0.3\n  f t : 1 0 0\n  t f : 0 1 0\n  t t : 0 0 1",
    "cpt B | B :", "  t : 1e400 0", "  f : nan 0.5", "  t : -0.5 1.5", "  f :",
    ":", "|", "",
]

text_files = st.one_of(
    st.text(),
    st.tuples(
        st.lists(st.sampled_from(DECLARATIONS), unique=True),
        st.lists(st.sampled_from(BLOCKS), max_size=5),
    ).map(lambda parts: "\n".join(parts[0] + parts[1])),
)

FUZZ = settings(
    derandomize=True,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def exit_codes(path):
    codes = []
    for command, *extra in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        codes.append(run([command, str(path), *extra], out=out, err=err))
    return codes


@FUZZ
@given(text=text_files)
def test_arbitrary_text_ends_in_an_exit_code(tmp_path, text):
    path = tmp_path / "net.bn"
    path.write_text(text, encoding="utf-8")
    assert all(0 <= code <= 5 for code in exit_codes(path))


@FUZZ
@given(data=st.binary())
def test_arbitrary_bytes_end_in_an_exit_code(tmp_path, data):
    path = tmp_path / "net.bn"
    path.write_bytes(data)
    assert all(0 <= code <= 5 for code in exit_codes(path))
