"""The lexical rules of every text input: lines end at '\\n', blanks are spaces and tabs, numbers are ASCII.

`dataio.parse_number` is the only number rule; every entry point that reads a
number (row fields, header counts, the confidence header, config values, --set, setting flags,
--gripper fields and policy coefficients) accepts exactly the tokens they accept.
"""

import argparse
import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grasplab import cli, dataio
from grasplab.cli import main
from grasplab.dataio import ParseError, read_confidence, read_point_cloud
from conftest import random_sphere_cloud, with_radial_normals
from test_cli import BASE_ARGV, GRIPPER, resolve

# digits, signs and exponents, then what Python's float or int reads beyond ASCII number text:
# digit separators, non-ASCII digits, other blanks and line breaks, and the words of non-finite values
NUMBER_TOKENS = ["3", "03", "+3", "3.0", "3e0", ".5", "5E-1", "\u0663", "\uff13", "0_3", "3_0", "\u0660.5",
                 "3\x1f", "\x1f3", "\xa03", "3\x0b", "3\x0c", "3\x85", "3\u2028", "nan", "inf", "-inf",
                 "Infinity", "1e400", "0x3", "e", ".", "3-"]
PLY3 = ("ply\nformat ascii 1.0\nelement vertex {}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n1 0 0\n0 1 0\n")


def rule_accepts(kind, token):
    try:
        dataio.parse_number(token, kind)
    except ValueError:
        return False
    return True


def run_main(argv):
    """main's exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def read_error(read, path, text):
    path.write_bytes(text.encode())
    try:
        read(path)
    except ParseError as exc:
        return str(exc)
    return None


def resolve_error(argv):
    result = resolve(argv)
    return None if isinstance(result, dict) else result[1]


def config_error(root, argv, text):
    (root / "s.cfg").write_bytes(text.encode())
    return resolve_error(argv + ["--config", str(root / "s.cfg")])


def coefficient_error(root, token):
    (root / "g.csv").write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0,0,1,0,0,0.5\n")
    (root / "a.txt").write_bytes(f"a = {token}\n".encode())
    code, _, err = run_main(["select", str(root / "g.csv"), "--coeffs", str(root / "a.txt")])
    return None if code == 0 else err


# entry point: (number kind, what its error names, run(dir, token) -> None when accepted, else the message)
ENTRY_POINTS = {
    "row field": (float, "r.xyz:2: ", lambda d, t: read_error(read_point_cloud, d / "r.xyz", f"0 0 0\n0 0 {t}\n")),
    "header count": (int, "h.ply:3: ", lambda d, t: read_error(read_point_cloud, d / "h.ply", PLY3.format(t))),
    "confidence header real": (float, "c.txt:1: ", lambda d, t: read_error(
        read_confidence, d / "c.txt", f"# d_th={t} width=0 n=1\n0.5\n")),
    "config value, real": (float, "setting confidence.d_th ", lambda d, t: config_error(
        d, BASE_ARGV["confidence"], f"confidence.d_th = {t}\n")),
    "config value, integer": (int, "setting labels.k1 ", lambda d, t: config_error(
        d, BASE_ARGV["labels"], f"labels.k1 = {t}\n")),
    "--set, real": (float, "setting confidence.d_th ", lambda d, t: resolve_error(
        BASE_ARGV["confidence"] + ["--set", f"confidence.d_th={t}"])),
    "--set, integer": (int, "setting labels.k1 ", lambda d, t: resolve_error(
        BASE_ARGV["labels"] + ["--set", f"labels.k1={t}"])),
    "flag, real": (float, "argument --dth: ", lambda d, t: resolve_error(BASE_ARGV["confidence"] + [f"--dth={t}"])),
    "flag, integer": (int, "argument --k1: ", lambda d, t: resolve_error(BASE_ARGV["labels"] + [f"--k1={t}"])),
    "--gripper field": (float, "argument --gripper: ", lambda d, t: resolve_error(
        ["sample", "c.ply", f"--gripper={t},0.1,0.02,0.005", "-o", "o.csv"])),
    "coefficient value": (float, "a.txt: coefficient a ", coefficient_error),
}


class TestNumberRule:
    def test_the_rule_accepts_ascii_numbers_only(self):
        assert [t for t in NUMBER_TOKENS if rule_accepts(float, t)] == ["3", "03", "+3", "3.0", "3e0", ".5", "5E-1"]
        assert [t for t in NUMBER_TOKENS if rule_accepts(int, t)] == ["3", "03"]

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400"])
    def test_non_finite_is_checked_before_the_characters(self, token):
        with pytest.raises(dataio.NonFinite, match=f"^non-finite value: {token!r}$"):
            dataio.parse_number(token)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_every_entry_point_accepts_what_the_rule_accepts(self, tmp_path, entry):
        kind, name, run = ENTRY_POINTS[entry]
        for token in NUMBER_TOKENS:
            error = run(tmp_path, token)
            assert (error is None) == rule_accepts(kind, token), (token, error)
            assert error is None or name in error, (token, error)

    @pytest.mark.parametrize("token", ["+1", "-1", "-0", "1" * 5000])
    def test_header_counts_take_digits_only(self, tmp_path, token):
        error = read_error(read_point_cloud, tmp_path / "h.ply", PLY3.format(token))
        assert error is not None and "h.ply:3: expected a non-negative integer count" in error


class TestLineRule:
    def test_only_newline_ends_a_line(self, tmp_path):
        # a vertical tab in a comment is part of that line, so the bad row is reported at its own line
        path = tmp_path / "v.xyz"
        path.write_bytes(b"0 0 0\n1 0 0 # note\v\n0 1 0\n0 0 1\nx 1 1\n")
        with pytest.raises(ParseError, match=r"v\.xyz:5: not a number: 'x'$"):
            read_point_cloud(path)

    @pytest.mark.parametrize("brk", ["\v", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"])
    def test_other_line_breaks_are_part_of_a_field(self, tmp_path, brk):
        # str.splitlines would read two rows here; a lone '\r' is no line end either
        path = tmp_path / "v.xyz"
        path.write_bytes(f"0 0 0\n1 0 0{brk}0 1 0\n".encode())
        with pytest.raises(ParseError, match=re.escape(f"v.xyz:2: not a number: {'0' + brk + '0'!r}") + "$"):
            read_point_cloud(path)

    def test_crlf_reads_as_lf(self, tmp_path):
        lf, crlf = tmp_path / "lf.ply", tmp_path / "crlf.ply"
        lf.write_text(PLY3.format(3))
        crlf.write_bytes(PLY3.format(3).replace("\n", "\r\n").encode())
        assert read_point_cloud(crlf).points.tobytes() == read_point_cloud(lf).points.tobytes()

    @pytest.mark.parametrize("header", ["ply\nformat ascii 1.0\nelement\x1fvertex 3\n",
                                         "ply\nformat ascii 1.0\nelement vertex\xa03\n"])
    def test_header_fields_split_on_spaces_and_tabs_only(self, tmp_path, header):
        path = tmp_path / "h.ply"
        path.write_bytes((header + "property float x\nend_header\n").encode())
        with pytest.raises(ParseError, match=r"h\.ply:3: "):
            read_point_cloud(path)

    def test_confidence_header_splits_on_spaces_and_tabs_only(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes("# d_th=0.01\xa0width=0 n=1\n0.5\n".encode())
        with pytest.raises(ParseError, match=r"c\.txt:1: header must define d_th, width, n"):
            read_confidence(path)
        path.write_bytes(b"# d_th=0.01\twidth=0  n=1\r\n0.5\r\n")
        assert len(read_confidence(path)) == 1


class TestReproducers:
    """Inputs that Python's int and float read, or its line and blank rules split, but the rules reject."""

    @pytest.fixture
    def files(self, tmp_path):
        (tmp_path / "five.xyz").write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
        (tmp_path / "k.cfg").write_text("normals.k = \u0663\n")
        (tmp_path / "coeffs.txt").write_text("a = 1_0\n")
        (tmp_path / "g.csv").write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0,0,1,0,0,0.5\n")
        return tmp_path

    @pytest.mark.parametrize("argv,code,message", [
        (["normals", "five.xyz", "-k", "\u0663", "-o", "o.ply"], 1, "argument -k: expects an integer, got '\u0663'"),
        (["normals", "five.xyz", "--set", "normals.k=0_3", "-o", "o.ply"], 2,
         "setting normals.k expects an integer, got '0_3'"),
        (["normals", "five.xyz", "--config", "k.cfg", "-o", "o.ply"], 2,
         "setting normals.k expects an integer, got '\u0663'"),
        (["sample", "five.xyz", "--gripper", "\u0660.06,0.1,0.02,0.005", "-o", "s.csv"], 1,
         "argument --gripper: expects D,W,H,T reals"),
        (["select", "g.csv", "--coeffs", "coeffs.txt"], 2,
         "coeffs.txt: coefficient a must be a finite real, got '1_0'"),
        (["normals", "five.xyz", "--config", "k.cfg", "-o", "o.ply"], 2,
         "k.cfg:1: setting normals.k expects an integer, got '\u0663'"),
        (["sample", "five.xyz", "--gripper", "0.06,0.1,0.02,0.005", "--centers", "99999999999999999999999",
          "-o", "s.csv"], 1, "argument --centers: must be in [1, 9223372036854775807], got 99999999999999999999999"),
    ])
    def test_exits_non_zero_naming_the_source(self, files, monkeypatch, argv, code, message):
        monkeypatch.chdir(files)
        got, out, err = run_main(argv)
        assert (got, out) == (code, "")
        assert message in err


# Whole command lines: a subcommand, its arguments drawn from tiny valid and malformed files, and
# options with tokens from the rules above. An integer is at most 50 or does not fit int64 (which every
# integer flag and setting refuses before any work), and the flags whose values multiply the work (the
# sampler's grid, --trials) stay below 6 when they are taken, so no example runs long.
TOKENS = NUMBER_TOKENS + ["1 0 0\v", "\u0660.06,0.1,0.02,0.005", "element\x1fvertex 3", "-", "--", "", "=",
                          GRIPPER, "0.06,0.1,0.02", "0.06,0.1,nan,0.005", "heuristic", "analytic", "linear"]
SET_ITEMS = ["normals.k=\u0663", "normals.k=0_3", "normals.k=3", "region.keep=50", "region.radius=0.05",
             "losscheck.tol=nan", "anchors.m=50", "anchors.c_b=1e-300", "labels.k1=3", "refine.d1=-1", "bogus=1",
             "sampler.angle_range=1.5707963267948966", "confidence.d_th=1e308", "eval.top=50",
             "sampler.n_centers=99999999999999999999999", "region.keep=9223372036854775808"]
SMALL = st.integers(-1, 5).map(str)
HUGE = st.one_of(st.integers(2**63, 2**80), st.integers(-2**80, -2**63 - 1)).map(str)  # beyond int64
GRIPPERS = st.sampled_from([GRIPPER] * 4 + ["0.06,0.1,0.02", "0.06,0.1,nan,0.005", "\u0660.06,0.1,0.02,0.005",
                                           "0.06,0.1,0.02,0.005\x0b", "0.06,0.1,0.02,-0.005"])
VALUE = st.one_of(st.sampled_from(TOKENS), st.integers(-3, 50).map(str), HUGE)
COMMON = ["--seed", "--set", "--config"]
COMMANDS = {  # the subcommand's arguments ('@' a slot), and its other options
    "normals": (["@cloud", "-o", "@out"], ["--subsample", "-k"]),
    "sample": (["@cloud", "--gripper", "@gripper", "-o", "@out"],
               ["--centers", "--orientations", "--angles", "--angle-range", "--knn"]),
    "collide": (["@cloud", "@grasps", "--gripper", "@gripper", "-o", "@out"], []),
    "score": (["@cloud", "@grasps", "--gripper", "@gripper", "-o", "@out"], []),
    "confidence": (["@cloud", "@grasps", "-o", "@out"], ["--dth"]),
    "labels": (["@grasps", "--cloud", "@cloud", "--confidence", "@conf", "-o", "@out"],
               ["--k1", "--anchors", "--regions"]),
    "losscheck": (["--trials", "@trials"], ["--h", "--trials"]),
    "select": (["@grasps"], ["--policy", "--coeffs"]),
    "fit": (["@xy", "--mode", "@mode", "-o", "@out"], ["--init-a", "--init-b"]),
    "eval": (["@grasps", "@cloud", "@grasps", "--gripper", "@gripper"], ["--pool", "--top", "-o"]),
}
ALL_OPTIONS = sorted(set(COMMON).union(*(options for _, options in COMMANDS.values())))
# valid files of each kind, then malformed ones of that kind; any slot may also get any other file
FILES = {"@cloud": ["cloud.ply", "cloud.xyz", "vt.xyz", "us.ply"], "@grasps": ["grasps.csv"],
         "@conf": ["conf.txt", "nbsp.txt"], "@xy": ["xy.csv"], "--config": ["settings.cfg", "k.cfg"],
         "--coeffs": ["coeffs.txt", "coeffs_bad.txt"], "--cloud": ["cloud.ply"], "--confidence": ["conf.txt"]}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The fuzz's tiny inputs, valid and malformed, by name; and its output paths."""
    root = tmp_path_factory.mktemp("fuzz")
    cloud = with_radial_normals(random_sphere_cloud(0.03, 20, seed=3))
    dataio.write_point_cloud(root / "cloud.ply", cloud)
    dataio.write_point_cloud(root / "cloud.xyz", random_sphere_cloud(0.03, 20, seed=4))
    (root / "grasps.csv").write_text("cx,cy,cz,rx,ry,rz,theta,sq\n0,0,0,0,1,0,0,0.5\n0.01,0,0.03,1,0,0,0.2,0.9\n")
    (root / "conf.txt").write_text("# d_th=0.01 width=0 n=20\n" + "0.5\n0\n1\n0.25\n" * 5)
    (root / "coeffs.txt").write_text("a = 9\nb = 0.5\n")
    (root / "xy.csv").write_text("x,y\n0,0.1\n0.25,0.2\n0.5,0.5\n0.75,0.8\n1,0.9\n")
    (root / "settings.cfg").write_text("normals.k = 3\nlabels.k1 = 2\n")
    (root / "vt.xyz").write_bytes(b"0 0 0\n1 0 0\v\n0 1 0\n")
    (root / "us.ply").write_bytes(PLY3.format(3).replace("element vertex", "element\x1fvertex").encode())
    (root / "nbsp.txt").write_bytes("# d_th=0.01\xa0width=0 n=1\n0.5\n".encode())
    (root / "k.cfg").write_bytes("normals.k = \u0663\n".encode())
    (root / "coeffs_bad.txt").write_text("a = 1_0\n")
    (root / "empty.txt").write_text("")
    (root / "bin.dat").write_bytes(b"\xff\xfe\n")
    (root / "dir").mkdir()
    (root / "out").mkdir()
    files = {p.name: str(p) for p in root.iterdir()}
    files["missing.xyz"] = str(root / "missing.xyz")
    outputs = [str(root / "out" / "o"), files["dir"], str(root / "missing" / "o.csv")]
    return files, outputs


@st.composite
def command_lines(draw, files, outputs):
    """A subcommand with its arguments, then up to three options, a third of them of any subcommand."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    template, options = COMMANDS[command]
    any_file = st.sampled_from(sorted(files.values()))

    def value(slot):
        if slot in FILES:
            return draw(st.one_of(st.sampled_from([files[name] for name in FILES[slot]]), any_file))
        multiplies = st.one_of(SMALL, st.sampled_from(TOKENS), HUGE)
        strategy = {"@out": st.sampled_from(outputs), "-o": st.sampled_from(outputs),
                    "@trials": st.integers(1, 5).map(str), "@gripper": GRIPPERS, "--gripper": GRIPPERS,
                    "--centers": multiplies, "--orientations": multiplies, "--angles": multiplies,
                    "--trials": multiplies, "@mode": st.sampled_from(["sigmoid", "linear"]),
                    "--set": st.one_of(st.sampled_from(SET_ITEMS), VALUE)}
        # any other option: a small count, which most of them take, or any token or huge integer
        return draw(strategy.get(slot, st.one_of(SMALL, VALUE)))

    argv = [command] + [value(part) if part.startswith("@") else part for part in template]
    if draw(st.integers(0, 5)) == 0 and len(argv) > 1:  # now and then a required part is missing
        del argv[draw(st.integers(1, len(argv) - 1))]
    own = st.sampled_from(COMMON + options)
    for option in draw(st.lists(st.one_of(own, own, st.sampled_from(ALL_OPTIONS)), max_size=3)):
        argv += [option] if option == "--regions" else [option, value(option)]
    return argv


class TestCommandLineFuzz:
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_the_option_table_is_the_parser(self, command):
        """The fuzz draws each of the subcommand's options, and no option the subcommand does not take."""
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert sorted(subparsers.choices) == sorted(COMMANDS)
        template, options = COMMANDS[command]
        action_of = {alias: action for action in subparsers.choices[command]._actions if action.dest != "help"
                     for alias in action.option_strings}
        named = {*COMMON, *options, *(part for part in template if part.startswith("-"))}
        assert named <= action_of.keys(), sorted(named - action_of.keys())
        assert {action_of[alias] for alias in named} == set(action_of.values())

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_every_command_line_ends_in_a_known_exit_code(self, fuzz_files, data):
        argv = data.draw(command_lines(*fuzz_files))
        code, _, err = run_main(argv)
        assert code in (0, 1, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv
