"""A command's exit code and stdout do not depend on what the process ran before.

The process keeps three memos (arith._sieve_memo, _member_memo and
classno._h_memo), and each command runs under its own
--rho-budget and --sf-budget. One seeded sequence of commands, each with
budgets drawn from a small set on both sides of what it needs, is run in
order, then shuffled in the same process, then with every memo emptied
before each command; all three runs must agree. One command's tuple is
large enough for the count helper, which then serves the rest of the run.
"""

import io
import random

from iqtuples import arith, classno, cli, counthelper

BIG_RHO, BIG_SF = 10**8, 10**12

# argv, then the rho and sf budgets drawn for it: each set holds values on
# both sides of what the command needs (the least budget it passes with),
# noted beside it where that is above 0
COMMANDS = [
    (["quintuple", "-n", "3", "-k", "2", "--verify"], (0, BIG_RHO), (119162, 119163, BIG_SF)),
    # four members from |D| = 1.4*10^10 on: the count helper takes a share
    (["quintuple", "-n", "5", "-k", "2", "--verify"], (0,), (132153477626, 132153477627, BIG_SF)),
    (["quintuple", "-n", "5", "-k", "5", "--format", "json"], (0, 1023, 1024, BIG_RHO), (0,)),  # rho 1024
    # d + 1's sieved cofactor 6964855437456566603 passes the base-2 power
    (["quadruple", "-n", "3", "-p", "5", "-k", "67", "--format", "json"], (0, 1, BIG_RHO), (0,)),
    # d + 196's sieved cofactor 7613657443518780209 splits once, into parts below P^3: rho 1024
    (["quadruple", "-n", "3", "-p", "7", "-k", "199"], (0, 1023, 1024, BIG_RHO), (0,)),
    (["quadruple", "-n", "3", "-p", "7", "-k", "4", "--verify", "--format", "json"],
     (0,), (66325498, 66325499, BIG_SF)),
    (["tuples", "-n", "3", "-m", "13", "-k", "2", "--mode", "lenient", "--verify"],
     (0,), (119162, 119163, BIG_SF)),
    (["thm31", "-l", "7", "-n", "3", "-p", "5"], (0,), (317, 318, BIG_SF)),
    (["thm31", "-l", "1639", "-n", "3", "-p", "67", "--format", "json"],
     (0,), (4402875629, 4402875630, BIG_SF)),
    (["squarefree", "-m", "10037000070259"], (0, 254, 255, BIG_RHO), (0,)),  # rho 255
    (["squarefree", "-m", "100003000700021"], (254, 382, 383, BIG_RHO), (0,)),  # rho 383
    (["squarefree", "-m", "1000003007000021", "--format", "json"], (383, 1023, 1024), (0,)),  # rho 1024
    (["classnum", "-D", "-123451"], (0,), (123450, 123451, BIG_SF)),
    (["classnum", "-D", "-2999999"], (0,), (2999998, 2999999, BIG_SF)),  # on the list of R
    (["classnum", "-D", "-4000004", "--format", "json"], (0,), (1000000, 1000001, BIG_SF)),
    # a tail of 127 a from SIEVE_FROM up, 60 of them with a split prime past _sqrt_table's rows
    (["classnum", "-D", "-49185848"], (0,), (12296461, 12296462, BIG_SF)),
    # verify, fed records built below: the first needs sf 119163, the second rho 1024
    # and is never verified (its square-free parts are past every sf budget)
    (["verify"], (0, BIG_RHO), (119162, 119163, BIG_SF)),
    (["verify", "--format", "json"], (0, 1023, 1024, BIG_RHO), (0, BIG_SF)),
]
RECORDS = (["quintuple", "-n", "3", "-k", "2", "--format", "json"],
           ["quintuple", "-n", "5", "-k", "5", "--format", "json"])


def _empty_memos():
    arith._sieve_memo.clear()
    arith._member_memo.clear()
    classno._h_memo.clear()


def _run(capsys, monkeypatch, argv, stdin, empty):
    if empty:
        _empty_memos()
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_outputs_do_not_depend_on_history(capsys, monkeypatch):
    records = []
    for argv in RECORDS:
        assert cli.main(argv) == 0
        records.append(capsys.readouterr().out)
    rng = random.Random(14)
    sequence = []  # (argv, stdin), two draws of budgets per command
    for argv, rhos, sfs in COMMANDS:
        stdin = "".join(records) if argv[0] == "verify" else ""
        for _ in range(2):
            sequence.append((argv + ["--rho-budget", str(rng.choice(rhos)),
                                     "--sf-budget", str(rng.choice(sfs))], stdin))
    rng.shuffle(sequence)
    order = list(range(len(sequence)))
    rng.shuffle(order)

    _empty_memos()
    in_order = [_run(capsys, monkeypatch, *call, empty=False) for call in sequence]
    shuffled = dict((i, _run(capsys, monkeypatch, *sequence[i], empty=False)) for i in order)
    fresh = [_run(capsys, monkeypatch, *call, empty=True) for call in sequence]

    for i, call in enumerate(sequence):
        assert shuffled[i] == in_order[i], call[0]
        assert fresh[i] == in_order[i], call[0]
    # the budgets bracket the costs: some commands pass, some exhaust a budget
    assert {code for code, _ in in_order} >= {0, 2}
    assert isinstance(counthelper._helper, counthelper._Helper)  # and the count helper served them
