"""Every format's output of the tuple commands and of verify, pinned by one sha256.

tests/test_digest.py pins the benchmark items' stdout, which is json only.
Here each command runs in json, csv and text; the digest covers its exit
code and stdout, as tools/output_digest.py digests an item. A change that
alters any of them on purpose updates DIGEST and says so.
"""

import hashlib

from iqtuples import cli

TUPLES = [
    ["quadruple", "-n", "3", "-p", "3", "-k", "2"],
    ["quadruple", "-n", "3", "-p", "7", "-k", "3"],
    ["quintuple", "-n", "3", "-k", "2"],
    ["quintuple", "-n", "5", "-k", "2"],
    ["quintuple", "-n", "3", "-k", "3", "--sf-budget", "2000000"],  # offset 1 is past the budget
    ["tuples", "-n", "3", "-m", "13", "-k", "131"],
    ["tuples", "-n", "3", "-m", "6", "-k", "4", "--mode", "lenient"],
]
OTHERS = [["classnum", "-D", "-23", "--with-forms"], ["thm31", "-l", "7", "-n", "3", "-p", "5"]]
STREAM = [TUPLES[0], TUPLES[2], TUPLES[6]]  # the json lines verify reads, three tuples

DIGEST = "3254aa7d9b85c965dc14361acfbcecb80132d3112d3f5943fbd4c0ed166c71a7"


def test_every_format_is_unchanged(capsys, tmp_path):
    def call(argv):
        code = cli.main(argv)
        return code, capsys.readouterr().out

    stream = tmp_path / "tuples.jsonl"
    stream.write_text("".join(call([*argv, "--format", "json"])[1] for argv in STREAM))
    commands = [*TUPLES, *([*argv, "--verify"] for argv in TUPLES), ["verify", str(stream)], *OTHERS]
    digest = hashlib.sha256()
    for argv in commands:
        for fmt in ("json", "csv", "text"):
            code, out = call([*argv, "--format", fmt])
            digest.update(f"{code}\n{len(out)}\n{out}".encode())
    assert len(commands) * 3 == 51
    assert digest.hexdigest() == DIGEST
