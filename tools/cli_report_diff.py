"""Run a fixed list of specgap CLI commands and diff two sets of reports.

A refactor that claims to keep behaviour shows it on this list:
- bounds, eigen and ``sample --seed 0`` on every ``catalog_grid()`` case;
- the four tables with ``--no-solve``, and the ball and gaussian-weighted
  tables solved;
- ``verify --scope all``, and the bracketing and cauchy-exact sweeps cut
  by ``--max-cases``;
- a few flag variants: ``--tail-tol`` on bounds, eigen and sample,
  ``--format csv`` on bounds and eigen, ``eigen --cells 512``, and the
  rejected ``eigen --cells 100`` and ``table --id ball --dims 3..2``;
- ``eigen --cells 64`` on gaussian n=3 and ball n=4, the smallest mesh,
  where a change to the Richardson scheme shows first;
- ``eigen --cells 128`` and ``--cells 256`` on cauchy beta=7.5 n=6 with
  sigma^2 = 1+r^2 and on gaussian n=2 with sigma^2 = 1/(1+r^2), whose
  domain doublings stretch the mesh far from its default spacing;
- ``sample --function radial-quadratic`` on gaussian n=3, and ``sample``
  on ball n=128 and exp-power alpha=1.01 n=192, whose CDFs at the rule
  knots nearest the origin fall below the table's 1e-18 probability clip;
- ``sample --function linear``, the path that draws n-dimensional points
  (the default radial function reads radii only), on gaussian n=3, on
  cauchy beta=4 n=3 with sigma^2 = 1+r^2 and on ball n=128, and the
  rejected ``sample --count 15`` under each function;
- ``sample --count`` 8191, 8193 and 24581 on gaussian n=3, under the
  default function and under ``--function linear``: one point short of
  the quantile kernels' 8192-point block, one past it, and three blocks
  and five points;
- ``sample --count 200000`` on gaussian n=3, whose batches of 12,500
  points are each streamed in two blocks, and ``--count 100003``, whose
  sixteen batches are uneven (three of 6,251 points, thirteen of 6,250);
- ``bounds`` on ball n=128, past the catalog's dimensions, where the
  variational candidate's f' overflows at the grid's first radius;
- ``bounds`` on gaussian n=1024 and n=4096 and on exp-power alpha=16
  n=64, and ``sample`` on gaussian n=1024: laws narrower than one step
  of the quadrature probe's coarse pass (0.69 in log(1+r));
- ``bounds`` on power-law exponents the catalog does not use: exp-power
  alpha=3 n=4 and alpha=16 n=3 (the probe r^alpha/alpha), and ball n=5
  and n=6 (the slow-increase probe r^a/a at a = -1 and -1.5);
- ``eigen`` on exp-power alpha=300 and alpha=1024 n=2, ``bounds`` on
  ball n=2048 and ``sample`` on exp-power alpha=1e6 n=2: near-ball laws
  whose density wall is narrower than a step of the solver's radius
  grid, power laws steep enough to strain a plain central difference,
  and a CDF table with rule knots where the density underflows to 0;
- ``bounds`` on exp-power alpha=64 and alpha=1024 n=2, whose candidate
  r^alpha/alpha has an f' that underflows to 0 on the bounds' grids;
- ``eigen --cells 2048`` on gaussian n=6 with sigma^2 = 1/(1+r^2), whose
  gap lies just below the essential-spectrum edge 1/4: the domain the
  solver returns, seen at a second mesh;
- ``eigen --cells 64`` and ``--cells 256`` on cauchy beta=3.5 n=4 with
  sigma^2 = 1+r^2, whose gap is the essential-spectrum edge t^2 = 2.25:
  the solver stops at that edge on a looser fit than at the default mesh;
- ``eigen`` on exp-power alpha=1.2 n=3, whose Schroedinger potential
  grows only like r^0.4, so its essential-spectrum edge is infinite;
- ``bounds`` on cauchy beta=2 n=3 with the unit weight, whose second
  moment diverges, so every bound that needs it reports why it is
  unavailable;
- the weight pairings the catalog leaves out (it weights only gaussian
  and cauchy): ``bounds`` and ``eigen`` on ball n=3 and on exp-power
  alpha=1.5 n=4, each with sigma^2 = 1+r^2 and with sigma^2 = 1/(1+r^2),
  and ``sample --function linear`` on gaussian n=3 with
  sigma^2 = 1/(1+r^2);
- ``bounds`` on cauchy beta=1.01 n=2 and ``eigen`` on cauchy beta=2.51
  n=5 with sigma^2 = 1+r^2, just above the integrability threshold
  beta = n/2: the normalization's closed-form tail carries the 2% of the
  mass past r = 1e154, but the 1e-12 truncation radius lies near
  r = 1e600, past the probe horizon, so both exit 1 (``NonIntegrable``).
- ``eigen`` past the catalog's dimensions, where the pencil's masses and
  conductances span hundreds of decades: ball n=128, gaussian n=1024,
  exp-power alpha=1 n=1024 and cauchy beta=514.5 n=1024 with
  sigma^2 = 1+r^2; the refused ball n=2048 (``DiscretizationError``, exit
  1); and ``eigen --cells 131072``, over the cell cap (exit 2);
- coarse meshes where the domain-doubling solver missed or refused a
  gap: ``eigen --cells 128`` on exp-power alpha=1 n=3; ``eigen`` at 64,
  128 and 256 cells on cauchy with sigma^2 = 1+r^2 at t = beta - n/2 =
  4.5 (n = 128, 256, 1024; gap 14) and t = 2.5 (n = 128, 512; gap 6);
  ``eigen --cells 64`` and ``--cells 256`` on cauchy beta=4.5 n=4 and
  ``--cells 64`` on cauchy beta=5.5 n=6, both with sigma^2 = 1+r^2
  (gap 6); ``eigen --cells 64`` on gaussian n=2 with sigma^2 = 1/(1+r^2),
  which was snapped to the edge 1/4;
- ``verify --scope all --cells 64``, and ``verify --scope cauchy-exact
  --cells 64``, whose coarse cauchy solves miss their exact gaps by up
  to 10% relative, within three of their reported errors;
- ``bounds`` on exp-power alpha=2 n=2 with sigma^2 = 1/(1+r^2), whose
  second-moment brackets bound the unweighted dynamics only;
- ``table --id cauchy-n3 --betas 2.5,4 --cells 64``, whose beta=4 solve
  was refused as unresolved by the domain-doubling solver;
- ``table --id cauchy-n3 --betas 2.5,3.5,3.75,3.76,4,6 --no-solve``, whose
  betas cross each n = 3 regime change the full reference once had
  (t = 2, beta = n(n+2)/(n+1) = 3.75, beta = n + 1), and ``bounds`` on
  cauchy beta=2.7 n=2 with sigma^2 = 1+r^2, between the n = 2 changes
  at (3 + sqrt 5)/2 and 3;
- ``eigen`` on cauchy n=3 with sigma^2 = 1+r^2 at beta = 3.503 and 3.51,
  just above t = beta - n/2 = 2, where the r^4-weighted law's 1e-10
  radius lies past the probe horizon and the starting radius falls back
  to the bare law's;
- ``bounds --family cauchy --beta 2.5 --n 3``, whose second moment
  diverges logarithmically: the end slope of r^2 nu refuses it, and the
  report says why no moment bracket is given;
- ``sample`` and ``bounds`` on ball n=1000000, a law within 4e-5 of the
  wall from probability 1e-18 up: its quantile table is read off the
  normalization's refined panels next to the wall.

    python3 tools/cli_report_diff.py run SRC_TREE OUT_DIR
    python3 tools/cli_report_diff.py compare DIR_A DIR_B

``run`` imports ``specgap`` from ``SRC_TREE/src`` (a checkout of any
commit), runs every command in-process with ``--output`` into
``OUT_DIR`` (``.csv`` files for CSV reports), and writes the exit codes
to ``OUT_DIR/exit_codes.json``; a command that raises instead of
reporting is recorded with its traceback.
Run it once per tree, in a fresh process each time.

``compare`` counts byte-identical reports and lists the rest with
- exit codes that differ;
- non-numeric differences: keys, list lengths, types, and text once its
  numbers are masked;
- the largest relative delta per numeric field, where a field is a JSON
  path with records keyed by their ``name`` and numbers inside text
  collected under the path of that text.  A record's ``value`` is left
  out where the record's ``error`` exceeds it: such a value is itself a
  deviation inside its own error (``verify``'s |solver - exact|, say),
  so its relative delta is noise, and the next list ranks its shift.
  A CSV report is read as a list of records keyed by its header, so its
  cells are text with numbers inside;
- per record name, the largest value shift in units of the record's own
  reported error;
- every record whose value moved, with its two values and the shift in
  units of the larger reported error;
- every moved ``sample`` value apart, with its shift in units of its
  95% half-width and its half-width's relative change.
It exits 1 when anything other than numbers differs, else 0.
"""

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import traceback

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_CODES = "exit_codes.json"
_NUMBER = re.compile(
    r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
_TABLES = ("exp-power-asymptotics", "cauchy-n3", "gaussian-weighted", "ball")
_GAUSSIAN = ["--family", "gaussian", "--n", "3"]
_CAUCHY = ["--family", "cauchy", "--beta", "4", "--n", "3",
           "--weight", "one-plus-r2"]
_BALL128 = ["--family", "ball", "--n", "128"]
_NARROW = (["--family", "gaussian", "--n", "1024"],
           ["--family", "gaussian", "--n", "4096"],
           ["--family", "exp-power", "--alpha", "16", "--n", "64"])
_OFF_CATALOG = (["--family", "ball", "--n", "3"],
                ["--family", "exp-power", "--alpha", "1.5", "--n", "4"])
_OFF_EXPONENT = (["--family", "exp-power", "--alpha", "3", "--n", "4"],
                 ["--family", "exp-power", "--alpha", "16", "--n", "3"],
                 ["--family", "ball", "--n", "5"],
                 ["--family", "ball", "--n", "6"])
_STRETCHED = (["--family", "cauchy", "--beta", "7.5", "--n", "6",
               "--weight", "one-plus-r2"],
              ["--family", "gaussian", "--n", "2",
               "--weight", "inv-one-plus-r2"])
_VARIANTS = (
    ["bounds"] + _CAUCHY + ["--tail-tol", "1e-6"],
    ["eigen"] + _CAUCHY + ["--tail-tol", "1e-6"],
    ["sample"] + _CAUCHY + ["--tail-tol", "1e-6", "--count", "20000"],
    ["bounds"] + _CAUCHY + ["--format", "csv"],
    ["eigen"] + _GAUSSIAN + ["--format", "csv"],
    ["eigen"] + _GAUSSIAN + ["--cells", "512"],
    ["eigen"] + _GAUSSIAN + ["--cells", "100"],
    ["eigen"] + _GAUSSIAN + ["--cells", "64"],
    ["eigen", "--family", "ball", "--n", "4", "--cells", "64"],
    *(["eigen"] + case + ["--cells", cells]
      for case in _STRETCHED for cells in ("128", "256")),
    ["sample"] + _GAUSSIAN + ["--function", "radial-quadratic"],
    ["sample"] + _BALL128,
    ["sample", "--family", "exp-power", "--alpha", "1.01", "--n", "192"],
    *(["sample"] + case + ["--function", "linear"]
      for case in (_GAUSSIAN, _CAUCHY, _BALL128)),
    *(["sample"] + _GAUSSIAN + ["--count", "15", "--function", function]
      for function in ("linear", "radial-quadratic")),
    *(["sample"] + _GAUSSIAN + ["--count", count] + function
      for count in ("8191", "8193", "24581")
      for function in ([], ["--function", "linear"])),
    *(["sample"] + _GAUSSIAN + ["--count", count]
      for count in ("200000", "100003")),
    ["bounds"] + _BALL128,
    *(["bounds"] + case for case in _NARROW),
    ["sample"] + _NARROW[0],
    *(["bounds"] + case for case in _OFF_EXPONENT),
    *(["eigen", "--family", "exp-power", "--alpha", alpha, "--n", "2"]
      for alpha in ("300", "1024")),
    ["bounds", "--family", "ball", "--n", "2048"],
    *(["bounds", "--family", "exp-power", "--alpha", alpha, "--n", "2"]
      for alpha in ("64", "1024")),
    ["sample", "--family", "exp-power", "--alpha", "1e6", "--n", "2"],
    ["bounds", "--family", "cauchy", "--beta", "2", "--n", "3"],
    *([command] + case + ["--weight", weight]
      for command in ("bounds", "eigen") for case in _OFF_CATALOG
      for weight in ("one-plus-r2", "inv-one-plus-r2")),
    ["sample"] + _GAUSSIAN + ["--weight", "inv-one-plus-r2",
                              "--function", "linear"],
    ["bounds", "--family", "cauchy", "--beta", "1.01", "--n", "2"],
    ["eigen", "--family", "cauchy", "--beta", "2.51", "--n", "5",
     "--weight", "one-plus-r2"],
    ["eigen", "--family", "gaussian", "--n", "6",
     "--weight", "inv-one-plus-r2", "--cells", "2048"],
    *(["eigen", "--family", "cauchy", "--beta", "3.5", "--n", "4",
       "--weight", "one-plus-r2", "--cells", cells]
      for cells in ("64", "256")),
    ["eigen", "--family", "exp-power", "--alpha", "1.2", "--n", "3"],
    *(["eigen"] + case for case in (
        _BALL128, _NARROW[0],
        ["--family", "exp-power", "--alpha", "1", "--n", "1024"],
        ["--family", "cauchy", "--beta", "514.5", "--n", "1024",
         "--weight", "one-plus-r2"],
        ["--family", "ball", "--n", "2048"])),
    ["eigen"] + _GAUSSIAN + ["--cells", "131072"],
    ["eigen", "--family", "exp-power", "--alpha", "1", "--n", "3",
     "--cells", "128"],
    *(["eigen", "--family", "cauchy", "--beta", beta, "--n", n,
       "--weight", "one-plus-r2", "--cells", cells]
      for n, beta in (("128", "68.5"), ("256", "132.5"), ("1024", "516.5"),
                      ("128", "66.5"), ("512", "258.5"))
      for cells in ("64", "128", "256")),
    *(["eigen", "--family", "cauchy", "--beta", "4.5", "--n", "4",
       "--weight", "one-plus-r2", "--cells", cells]
      for cells in ("64", "256")),
    ["eigen", "--family", "cauchy", "--beta", "5.5", "--n", "6",
     "--weight", "one-plus-r2", "--cells", "64"],
    ["eigen", "--family", "gaussian", "--n", "2",
     "--weight", "inv-one-plus-r2", "--cells", "64"],
    ["table", "--id", "ball", "--dims", "2,4,8"],
    ["table", "--id", "gaussian-weighted", "--dims", "2..4"],
    ["table", "--id", "ball", "--dims", "3..2"],
    ["verify", "--scope", "bracketing", "--max-cases", "5"],
    ["verify", "--scope", "cauchy-exact", "--max-cases", "3"],
    ["verify", "--scope", "all", "--cells", "64"],
    ["bounds", "--family", "exp-power", "--alpha", "2", "--n", "2",
     "--weight", "inv-one-plus-r2"],
    ["table", "--id", "cauchy-n3", "--betas", "2.5,4", "--cells", "64"],
    ["verify", "--scope", "cauchy-exact", "--cells", "64"],
    ["table", "--id", "cauchy-n3", "--betas", "2.5,3.5,3.75,3.76,4,6",
     "--no-solve"],
    ["bounds", "--family", "cauchy", "--beta", "2.7", "--n", "2",
     "--weight", "one-plus-r2"],
    *(["eigen", "--family", "cauchy", "--beta", beta, "--n", "3",
       "--weight", "one-plus-r2"] for beta in ("3.503", "3.51")),
    ["bounds", "--family", "cauchy", "--beta", "2.5", "--n", "3"],
    *([command, "--family", "ball", "--n", "1000000"]
      for command in ("sample", "bounds")),
)


def command_list(grid):
    """[argv] of the fixed command list for the catalog cases ``grid``."""
    sys.path.insert(0, _REPO)
    from perfbench.workloads import case_argv

    argvs = []
    for command, seed in (("bounds", None), ("eigen", None), ("sample", 0)):
        argvs += [case_argv(command, spec, seed) for spec in grid]
    argvs += [["table", "--id", table, "--no-solve"] for table in _TABLES]
    argvs.append(["verify", "--scope", "all"])
    return argvs + list(_VARIANTS)


def _file_name(argv):
    ext = ".csv" if "csv" in argv else ".json"
    return re.sub(r"[^A-Za-z0-9.=+-]+", "_", " ".join(argv)) + ext


def run(tree, out_dir):
    sys.path.insert(0, os.path.join(os.path.abspath(tree), "src"))
    from specgap import catalog, cli

    os.makedirs(out_dir, exist_ok=True)
    codes = {}
    for argv in command_list(catalog.catalog_grid()):
        name = _file_name(argv)
        try:
            codes[name] = cli.main(
                argv + ["--output", os.path.join(out_dir, name)])
        except Exception:
            # keep going: a raw exception is an outcome to compare
            codes[name] = "raised: " + traceback.format_exc(limit=-1).strip()
    with open(os.path.join(out_dir, _CODES), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
    print(f"{len(codes)} commands -> {out_dir}")


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _inside_error(rec):
    """True for a record whose value is smaller than its reported error."""
    value, error = rec.get("value"), rec.get("error")
    return _is_number(value) and _is_number(error) and error > abs(value)


class _Diff:
    """What differs between two reports, accumulated over many files."""

    def __init__(self):
        self.rel = {}           # field -> (largest relative delta, file)
        self.in_error = {}      # record name -> (|dvalue| / error, file)
        # (file, record name, a, b, |dvalue| / error, relative error delta)
        self.moved = []
        self.other = []         # non-numeric differences

    def number(self, path, a, b, where):
        if a == b or (math.isnan(a) and math.isnan(b)):
            delta = 0.0
        elif math.isfinite(a) and math.isfinite(b):
            delta = abs(a - b) / max(abs(a), abs(b))
        else:
            delta = math.inf
        if delta >= self.rel.get(path, (-1.0, None))[0]:
            self.rel[path] = (delta, where)

    def walk(self, a, b, path, where):
        if _is_number(a) and _is_number(b):
            self.number(path, float(a), float(b), where)
        elif type(a) != type(b):
            self.other.append(f"{where}: {path}: {a!r} vs {b!r}")
        elif isinstance(a, str):
            mask_a, mask_b = _NUMBER.sub("#", a), _NUMBER.sub("#", b)
            nums_a, nums_b = _NUMBER.findall(a), _NUMBER.findall(b)
            if mask_a != mask_b or len(nums_a) != len(nums_b):
                self.other.append(f"{where}: {path}: {a!r} vs {b!r}")
                return
            for x, y in zip(nums_a, nums_b):
                self.number(path + "~text", float(x), float(y), where)
        elif isinstance(a, dict):
            if set(a) != set(b):
                self.other.append(
                    f"{where}: {path}: keys {sorted(set(a) ^ set(b))}")
                return
            noise = _inside_error(a) or _inside_error(b)
            for key in sorted(a):
                if (key == "value" and noise and _is_number(a[key])
                        and _is_number(b[key])):
                    continue
                self.walk(a[key], b[key], f"{path}.{key}", where)
            self.record(a, b, where)
        elif isinstance(a, list):
            if len(a) != len(b):
                self.other.append(
                    f"{where}: {path}: {len(a)} vs {len(b)} items")
                return
            for x, y in zip(a, b):
                key = x.get("name") if isinstance(x, dict) else None
                self.walk(x, y, f"{path}[{key or ''}]", where)
        elif a != b:
            self.other.append(f"{where}: {path}: {a!r} vs {b!r}")

    def record(self, a, b, where):
        try:
            shift = abs(a["value"] - b["value"])
            error = max(a["error"], b["error"])
        except (KeyError, TypeError):
            return
        if shift > 0.0:
            ratio = shift / error if error > 0.0 else math.inf
            name = a.get("name", "?")
            half = abs(a["error"] - b["error"]) / error if error > 0.0 else 0.0
            self.moved.append((where, name, a["value"], b["value"], ratio,
                               half))
            if ratio >= self.in_error.get(name, (-1.0, None))[0]:
                self.in_error[name] = (ratio, where)


def compare(dir_a, dir_b):
    def load_codes(d):
        with open(os.path.join(d, _CODES), encoding="utf-8") as fh:
            return json.load(fh)

    codes_a, codes_b = load_codes(dir_a), load_codes(dir_b)
    diff = _Diff()
    for name in sorted(set(codes_a) ^ set(codes_b)):
        diff.other.append(f"{name}: run on one side only")
    same, changed = 0, []
    for name in sorted(set(codes_a) & set(codes_b)):
        if codes_a[name] != codes_b[name]:
            diff.other.append(
                f"{name}: exit {codes_a[name]!r} vs {codes_b[name]!r}")
        paths = [os.path.join(d, name) for d in (dir_a, dir_b)]
        present = [os.path.exists(p) for p in paths]
        if not all(present):
            if any(present):
                diff.other.append(f"{name}: report on one side only")
            continue
        raw = []
        for p in paths:
            with open(p, "rb") as fh:
                raw.append(fh.read())
        if raw[0] == raw[1]:
            same += 1
            continue
        changed.append(name)
        if name.endswith(".csv"):
            reports = [list(csv.DictReader(io.StringIO(r.decode())))
                       for r in raw]
        else:
            reports = [json.loads(r) for r in raw]
        diff.walk(reports[0], reports[1], "", name)

    print(f"{same} of {len(codes_a)} reports byte-identical; "
          f"{len(changed)} differ")
    for name in changed:
        print(f"  differs: {name}")
    print("largest relative delta per numeric field:")
    for path, (delta, where) in sorted(diff.rel.items()):
        if delta > 0.0:
            print(f"  {path}: {delta:.3g} ({where})")
    print("largest value shift / reported error per record:")
    for name, (ratio, where) in sorted(diff.in_error.items()):
        print(f"  {name}: {ratio:.3g} ({where})")
    print("every moved value (a -> b, shift / reported error):")
    for where, name, a, b, ratio, _ in diff.moved:
        print(f"  {where}: {name}: {a!r} -> {b!r} ({ratio:.3g})")
    sampled = [m for m in diff.moved if m[0].startswith("sample")]
    print(f"{len(sampled)} moved sample value(s) "
          "(shift / half-width; relative half-width change):")
    for where, _, _, _, ratio, half in sampled:
        print(f"  {where}: {ratio:.3g}; {half:.3g}")
    print(f"{len(diff.other)} non-numeric difference(s)")
    for line in diff.other:
        print(f"  {line}")
    return 1 if diff.other else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="run the command list on one tree")
    p.add_argument("tree", help="source tree holding src/specgap")
    p.add_argument("out_dir", help="directory the reports go to")
    p = sub.add_parser("compare", help="diff two run directories")
    p.add_argument("dir_a")
    p.add_argument("dir_b")
    args = parser.parse_args(argv)
    if args.action == "run":
        run(args.tree, args.out_dir)
        return 0
    return compare(args.dir_a, args.dir_b)


if __name__ == "__main__":
    sys.exit(main())
