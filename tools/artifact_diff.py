"""Run one fixed CLI command set in two source checkouts and diff the output.

    python tools/artifact_diff.py PARENT_CHECKOUT CHANGE_CHECKOUT [--r R]

A checkout is the root of a source tree (the directory holding src/).
For each r of R_SET (or only the --r given), each checkout runs, one
command at a time, in a fresh process on its own src/:

  profile --emit json; profile; verify --sample-r 5; phase-portrait;
  simulate --n 256 --s-span 0.1 --n-samples 3, and its --ds 0.05 abort;

then, once, sweep --values 2.01,2.03 --n-points 1024.  Each side works
in its own scratch directory under the same relative --out-dir
(out/r<r> per r, out/sweep), since the config hash a file carries
includes out_dir.  So verify reads the profile table its own side wrote.

For each command the tool compares the exit code, stdout, stderr and
every file the command wrote (new, or changed since the command before).
A JSON file is compared key by key, a CSV column by column (its '#'
stamp lines as keys), any other file line by line; it prints
"identical" or the keys, columns or lines that differ.  The one thing
ignored is the build hash inside table_key: a profile JSON's table_key
may differ if each side's key is the one its own build gives the run's
configuration (cli._table_key of the config in the file's log).  The
exit code is 0 exactly when everything is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

#: the r set: below the near-r* window, its middle, and up to r*
R_STAR = 10.0 / (2.0 + 2.0 * math.sqrt(2.0))
R_SET = (1.8, 2.01, 2.05, 2.068, R_STAR - 1e-4)

#: (label, arguments) run in order at each r, after "--r R --out-dir D"
PER_R = (
    ("profile --emit json", ["profile", "--emit", "json"]),
    ("profile", ["profile"]),
    ("verify --sample-r 5", ["verify", "--sample-r", "5"]),
    ("phase-portrait", ["phase-portrait"]),
    ("simulate", ["simulate", "--n", "256", "--s-span", "0.1",
                  "--n-samples", "3"]),
    ("simulate --ds 0.05", ["simulate", "--n", "256", "--s-span", "0.1",
                            "--n-samples", "3", "--ds", "0.05"]),
)
SWEEP = ("sweep", ["sweep", "--values", "2.01,2.03", "--n-points", "1024",
                   "--out-dir", os.path.join("out", "sweep")])

#: prints, for each profile JSON given, whether its table_key is the key
#: this build gives the configuration its log records
KEY_CHECK = """
import json, sys
from nls_implosion import cli
for path in sys.argv[1:]:
    with open(path) as fh:
        key = json.load(fh)["table_key"]
    with open(path[:-len(".json")] + ".log.json") as fh:
        config = json.load(fh)["artifact"]["config"]
    print(key == cli._table_key(cli.RunConfig.from_mapping(config)))
"""


def _env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def _snapshot(work: str) -> dict[str, bytes]:
    """Every file under work, by its path relative to work."""
    files = {}
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return files


def run_side(root: str, work: str, commands) -> list[dict]:
    """Run the commands in work on the checkout at root; per command its
    exit code, stdout, stderr and the files it wrote."""
    results, before = [], {}
    for label, argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", "nls_implosion.cli", *argv], cwd=work,
            env=_env(root), capture_output=True, text=True, timeout=600)
        after = _snapshot(work)
        written = {k: v for k, v in after.items() if before.get(k) != v}
        results.append({"label": label, "code": done.returncode,
                        "stdout": done.stdout, "stderr": done.stderr,
                        "files": written})
        before = after
    return results


def own_build_keys(root: str, work: str, results: list[dict]) -> set[str]:
    """The profile JSONs whose table_key is their own build's key."""
    paths = sorted({name for res in results for name in res["files"]
                    if os.path.basename(name).startswith("profile_")
                    and name.endswith(".json")
                    and not name.endswith(".log.json")})
    if not paths:
        return set()
    done = subprocess.run([sys.executable, "-c", KEY_CHECK, *paths],
                          cwd=work, env=_env(root), capture_output=True,
                          text=True, timeout=600, check=True)
    return {p for p, ok in zip(paths, done.stdout.split()) if ok == "True"}


def _flatten(value, prefix: str = "") -> dict:
    """Leaves of a JSON value by key path; a list of scalars is a leaf."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and any(isinstance(v, (dict, list))
                                         for v in value):
        items = ((f"[{i}]", v) for i, v in enumerate(value))
    else:
        return {prefix: value}
    out = {}
    for key, v in items:
        path = f"{prefix}{key}" if key.startswith("[") or not prefix \
            else f"{prefix}.{key}"
        out.update(_flatten(v, path))
    return out


def _json_diff(a: bytes, b: bytes, ignore_key: bool) -> list[str]:
    fa, fb = _flatten(json.loads(a)), _flatten(json.loads(b))
    if ignore_key:
        fa.pop("table_key", None)
        fb.pop("table_key", None)
    return [f"key {k}" for k in sorted(set(fa) | set(fb))
            if fa.get(k, KeyError) != fb.get(k, KeyError)]


def _csv_diff(a: bytes, b: bytes) -> list[str]:
    def split(data):
        lines = data.decode().splitlines()
        stamps = [line for line in lines if line.startswith("#")]
        rows = list(csv.reader(io.StringIO("\n".join(
            line for line in lines if not line.startswith("#")))))
        return stamps, rows

    (sa, ra), (sb, rb) = split(a), split(b)
    diffs = [f"stamp {x.split(':')[0].lstrip('# ')}"
             for x, y in zip(sa, sb) if x != y]
    if len(sa) != len(sb):
        diffs.append(f"stamp lines {len(sa)} against {len(sb)}")
    if not ra or not rb or ra[0] != rb[0]:
        return diffs + ["header"]
    if len(ra) != len(rb):
        diffs.append(f"rows {len(ra) - 1} against {len(rb) - 1}")
    for j, name in enumerate(ra[0]):
        if any(x[j:j + 1] != y[j:j + 1] for x, y in zip(ra[1:], rb[1:])):
            diffs.append(f"column {name}")
    return diffs


def _text_diff(a: bytes, b: bytes) -> list[str]:
    la, lb = a.decode().splitlines(), b.decode().splitlines()
    diffs = [f"line {i + 1}" for i, (x, y) in enumerate(zip(la, lb))
             if x != y]
    if len(la) != len(lb):
        diffs.append(f"lines {len(la)} against {len(lb)}")
    return diffs


#: a table_key stamp line of a JSON artifact
TABLE_KEY = re.compile(rb'^  "table_key": "[0-9a-f]*"', re.MULTILINE)


def file_diff(name: str, a: bytes, b: bytes, ignore_key: bool) -> list[str]:
    if ignore_key:
        a, b = (TABLE_KEY.sub(b'  "table_key": ""', x) for x in (a, b))
    if a == b:
        return []
    if name.endswith(".json"):
        return _json_diff(a, b, ignore_key) or ["bytes (same JSON values)"]
    if name.endswith(".csv"):
        return _csv_diff(a, b) or ["bytes"]
    return _text_diff(a, b) or ["bytes"]


def compare(ra: dict, rb: dict, keyed: set[str]) -> list[str]:
    """What differs between one command's results on the two sides."""
    diffs = []
    if ra["code"] != rb["code"]:
        diffs.append(f"exit code {ra['code']} against {rb['code']}")
    for stream in ("stdout", "stderr"):
        diffs += [f"{stream} {d}" for d in _text_diff(
            ra[stream].encode(), rb[stream].encode())]
    fa, fb = ra["files"], rb["files"]
    for name in sorted(set(fa) | set(fb)):
        if name not in fa or name not in fb:
            side = "parent" if name in fa else "change"
            diffs.append(f"{name}: written on the {side} side only")
            continue
        diffs += [f"{name}: {d}" for d in
                  file_diff(name, fa[name], fb[name], name in keyed)]
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="parent checkout (holds src/)")
    parser.add_argument("change", help="changed checkout (holds src/)")
    parser.add_argument("--r", type=float,
                        help="run at this r alone instead of the r set")
    args = parser.parse_args(argv)

    r_set = R_SET if args.r is None else (args.r,)
    commands = [(f"r={r!r} {label}",
                 [*cmd, "--r", repr(r),
                  "--out-dir", os.path.join("out", f"r{r!r}")])
                for r in r_set for label, cmd in PER_R]
    commands.append(SWEEP)

    sides = []
    with tempfile.TemporaryDirectory(prefix="artifact_diff-") as tmp:
        for name, root in (("parent", args.parent), ("change", args.change)):
            work = os.path.join(tmp, name)
            os.mkdir(work)
            results = run_side(os.path.abspath(root), work, commands)
            sides.append((results, own_build_keys(os.path.abspath(root),
                                                   work, results)))

    (res_a, keys_a), (res_b, keys_b) = sides
    keyed = keys_a & keys_b
    n_diff = n_files = 0
    for ra, rb in zip(res_a, res_b):
        diffs = compare(ra, rb, keyed)
        n_files += len(set(ra["files"]) | set(rb["files"]))
        n_diff += bool(diffs)
        print(f"{ra['label']}: exit {ra['code']}, "
              f"{len(ra['files'])} files, "
              + ("identical" if not diffs else "DIFFERS"))
        for d in diffs:
            print(f"    {d}")
    print(f"{len(res_a)} commands, {n_files} files: "
          + ("all identical" if not n_diff
             else f"{n_diff} commands differ"))
    return 0 if not n_diff else 1


if __name__ == "__main__":
    sys.exit(main())
