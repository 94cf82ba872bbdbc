"""The README runs as written, and its lists match the code.

Its python blocks run as they stand, and every `seprep` command of its shell
blocks runs verbatim through seprep.cli.main, in a temporary directory and in
the README's order, to exit 0 with each artifact the README names for that
subcommand. Its public names are the package namespace, its flag table is the
parser's, and it names no private identifier.
"""
import itertools
import re
import shlex
from pathlib import Path

from seprep import cli
from test_regularize import PUBLIC_NAMES

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", TEXT, flags=re.M | re.S)


def _table(column):
    """{subcommand: the backticked words of its cell} of the table headed `| subcommand | column |`."""
    head = f"| subcommand | {column} |\n|---|---|\n"
    assert head in TEXT, f"the README has no table headed {head!r}"
    lines = TEXT.split(head, 1)[1].splitlines()
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines):
        name, cell = (c.strip() for c in line.strip("|").split("|"))
        rows[name.strip("`")] = " ".join(re.findall(r"`([^`]+)`", cell)).split()
    return rows


def _commands():
    """Each `seprep` command of the shell blocks, continuation lines joined, as an argv."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("seprep ")]


def _artifacts(argv, named):
    """The paths that `named`, a row of the artifacts table, stands for in the run of argv.

    With only flags named, they are the paths those flags give; otherwise the
    names are files in --out, with <N> and <seed> taking each --n and --seeds value.
    """
    opts = dict(zip(argv, argv[1:]))
    files = [word for word in named if not word.startswith("--")]
    if not files:
        return [Path(opts[flag]) for flag in named]
    combos = list(itertools.product(opts.get("--n", "").split(","),
                                    opts.get("--seeds", "").split(",")))
    return {Path(opts["--out"], name.replace("<N>", n).replace("<seed>", seed))
            for name in files for n, seed in combos}


def test_the_python_blocks_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})


def test_each_command_runs_and_writes_its_artifacts(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _commands()
    artifacts = _table("artifacts")
    # one example per subcommand, run in order: select reads the dataset sample writes
    assert sorted(argv[0] for argv in commands) == sorted(artifacts)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        paths = _artifacts(argv, artifacts[argv[0]])
        assert paths and all(path.is_file() for path in paths), (argv, sorted(map(str, paths)))


def test_the_public_names_are_the_package_namespace():
    assert "\n## Public names\n" in TEXT
    section = TEXT.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `(\w+)`:", section, flags=re.M)
    assert len(names) == len(set(names))
    assert set(names) == PUBLIC_NAMES | {"errors", "problems"}


def test_the_flag_table_is_the_parsers():
    table = _table("flags")
    assert table.pop("kl-info") == ["--dims", "--out"]
    assert table == {name: flags.split() for name, (_, flags) in cli._COMMANDS.items()}


def test_no_private_identifier_is_named():
    spans = re.findall(r"`([^`\n]+)`", TEXT)
    assert [span for span in spans if span.startswith("_")] == []
    assert re.findall(r"\w+\._\w+", TEXT) == []
