"""The README's examples run: the Python API block prints what its comments
say, each job file runs through its command, the command lines run as
written, and the result document shown is node.job's hk document."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from kunz.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
# the commands each job file under "### Job files" runs through
JOB_COMMANDS = {"node": ("hk", "fsig"), "cusp": ("tame",),
                "scan": ("scan",), "bounds": ("verify-bounds",)}


def section(heading):
    """The README's text under a heading, up to the next heading."""
    after = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n##+ ", after, maxsplit=1)[0]


def block(heading, language):
    """The first fenced block of the language under a heading."""
    return re.search(rf"```{language}\n(.*?)```", section(heading),
                     re.S).group(1)


def job_files():
    """name -> text of each `# <name>.job` block under Job files."""
    blocks = re.findall(r"```text\n(.*?)```", section("### Job files"), re.S)
    return {re.match(r"# (\w+)\.job", text).group(1): text
            for text in blocks}


def write_job_files(directory):
    for name, text in job_files().items():
        (directory / f"{name}.job").write_text(text, encoding="utf-8")


def run_kunz(args, capsys):
    """Run one command line in process: its exit code, stdout and stderr."""
    with pytest.raises(SystemExit) as stop:
        main.main(args=args, prog_name="kunz")
    return (stop.value.code, *capsys.readouterr())


def test_the_python_api_example_prints_its_comments():
    code = block("## Python API", "python")
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    assert expected and len(expected) == code.count("print(")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_every_job_file_example_has_its_commands():
    assert set(job_files()) == set(JOB_COMMANDS)


@pytest.mark.parametrize(
    "name, command",
    [(name, command) for name, commands in JOB_COMMANDS.items()
     for command in commands])
def test_each_job_file_example_runs(name, command, tmp_path, capsys):
    write_job_files(tmp_path)
    exit_code, out, err = run_kunz(
        [command, "--input", str(tmp_path / f"{name}.job")], capsys)
    assert exit_code == 0, err
    assert json.loads(out)["job"]["command"] == command


def test_the_command_line_examples_run(tmp_path, monkeypatch, capsys):
    write_job_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    lines = block("## Command line", "sh").splitlines()
    assert len(lines) == 3 and all(line.startswith("kunz ") for line in lines)
    for line in lines:
        exit_code, _, err = run_kunz(shlex.split(line)[1:], capsys)
        assert exit_code == 0, (line, err)
    assert (tmp_path / "node_s.csv").is_file()
    assert json.loads((tmp_path / "cusp_result.json").read_text())["payload"]


def test_the_result_document_example_is_node_hk(tmp_path, capsys):
    shown = block("### Result documents", "json")
    write_job_files(tmp_path)
    exit_code, out, err = run_kunz(
        ["hk", "--input", str(tmp_path / "node.job")], capsys)
    assert exit_code == 0, err
    document = json.loads(out)
    assert f'"schema_version": {document["schema_version"]},' in shown
    assert f'"version": "{document["version"]}",' in shown
    assert f'"job": {{"command": "{document["job"]["command"]}",' in shown
    prefix = re.search(r'"content_hash": "([0-9a-f]{8})\.\.\."',
                       shown).group(1)
    assert document["content_hash"].startswith(prefix)
