"""Compare two outputs of tools/bit_sweep.py, result by result.

Run with the two files and no options:

    python3 tools/sweep_diff.py A.json B.json

A result moved when the bits of its value or of its error differ. For
each family of results (the first part of the key, as linear, i_nl or
matsubara_sum) the script prints how many results both files hold,
how many of them moved, the worst relative move of a value,
|b - a| / max(|a|, |b|), and the worst ratio of a value's move to the
sum of both stated errors, |b - a| / (err_a + err_b) (inf where both
errors are 0 and the value moved). It then names every result whose
n_evals or flag changed, every result that raises in one file and not
the other or raises another exception, every result present in only
one file, every CLI argv whose exit status or output changed and every
lab entry that changed. Exit status: 0 when the two sweeps agree bit
for bit, 1 when anything differs, 2 for a wrong number of arguments.
"""

import json
import math
import pathlib
import sys


def _family(key):
    return key.split("/", 1)[0]


def _ratio(num, den):
    if num == 0.0:
        return 0.0
    return num / den if den > 0.0 else math.inf


def _compare_results(a, b):
    """The family table and the named changes between two result maps."""
    families = {}
    named = []
    for key in sorted(a.keys() | b.keys()):
        if key not in a or key not in b:
            named.append("only in %s: %s" % ("A" if key in a else "B", key))
            continue
        old, new = a[key], b[key]
        row = families.setdefault(_family(key), [0, 0, 0.0, 0.0])
        row[0] += 1
        if isinstance(old, str) or isinstance(new, str):
            if old != new:
                named.append("outcome %s: %s -> %s" % (key, _show(old),
                                                       _show(new)))
            continue
        if old[2:] != new[2:]:
            named.append("n_evals/flag %s: %s -> %s" % (key, old[2:],
                                                        new[2:]))
        if old[:2] == new[:2]:
            continue
        row[1] += 1
        (va, ea), (vb, eb) = ([float.fromhex(h) for h in r[:2]]
                              for r in (old, new))
        move = abs(vb - va)
        row[2] = max(row[2], _ratio(move, max(abs(va), abs(vb))))
        row[3] = max(row[3], _ratio(move, ea + eb))
    return families, named


def _show(outcome):
    return outcome if isinstance(outcome, str) else "a result"


def _moved_entries(a, b):
    return sorted(key for key in a.keys() | b.keys() if a.get(key)
                  != b.get(key))


def diff(a, b):
    """Report lines comparing the sweeps a and b, and whether they differ."""
    families, named = _compare_results(a["results"], b["results"])
    lines = ["%-24s %7s %6s %11s %11s" % ("family", "results", "moved",
                                          "worst rel", "worst/errs")]
    for name, (count, moved, rel, errs) in sorted(families.items()):
        lines.append("%-24s %7d %6d %11.3g %11.3g" % (name, count, moved,
                                                      rel, errs))
    moved = sum(row[1] for row in families.values())
    worst = max([row[3] for row in families.values()], default=0.0)
    lines.append("moved %d of %d results; worst |move|/(err_A + err_B) %.3g"
                 % (moved, sum(row[0] for row in families.values()), worst))
    lines += named or ["no n_evals, flag or outcome changed"]
    differ = bool(moved or named)
    for part in ("cli", "lab"):
        entries = _moved_entries(a[part], b[part])
        lines.append("%s: %d of %d entries changed" % (
            part, len(entries), len(a[part].keys() | b[part].keys())))
        lines += ["  " + key for key in entries]
        differ = differ or bool(entries)
    return lines, differ


def main(argv):
    if len(argv) != 2:
        sys.stderr.write("usage: python3 tools/sweep_diff.py A.json B.json\n")
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
            for path in argv)
    lines, differ = diff(a, b)
    sys.stdout.write("\n".join(lines) + "\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
