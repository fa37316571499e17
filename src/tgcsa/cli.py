"""Command-line front end.

Subcommands: gen writes synthetic contact files, stats summarizes one,
build turns contacts into an index image, query answers a batch of
one-line queries, bench times the operation classes. Reports are
machine-parseable key/value lines separated by tabs; query output is one
line per query.

Query lines look like:

    D u t        targets of u          R v t        sources into v
    E u v t      is the edge alive     S t          snapshot
    A t          edges starting at t   X t          edges ending at t

Any of them may replace the instant with an interval by appending
".. t_end"; D, R and E also take a trailing "w" or "s" to pick whether
the contact must touch or cover the interval (cover is the default, and
the only reading the other classes support).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from . import indexfile, psienc, synth
from .baseline import EdgeLogIndex
from .corpus import load_contacts, write_contacts
from .query import TimeSemantics
from .sacsa import build_index
from .synth import GenSpec, XorShift64Star, dataset_stats


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _report(pairs, fh=None):
    fh = fh or sys.stdout
    for k, v in pairs:
        fh.write(f"{k}\t{_fmt(v)}\n")


def _add_contact_args(p):
    p.add_argument("--arity", type=int, choices=(3, 4), default=4,
                   help="terms per contact (default 4)")
    p.add_argument("--semantics", choices=("interval", "incremental", "point"),
                   help="time semantics; defaults by arity")
    p.add_argument("--nu", type=int, help="declare the vertex count")
    p.add_argument("--tau", type=int, help="declare the lifetime")


def _load(args):
    return load_contacts(args.input, arity=args.arity, nu=args.nu,
                         tau=args.tau, semantics=args.semantics)


def cmd_build(args) -> int:
    cs = _load(args)
    t0 = time.perf_counter()
    if args.engine == "edgelog":
        idx = EdgeLogIndex.build(cs)
    else:
        idx = build_index(cs, codec=args.codec, t_psi=args.t_psi)
    seconds = time.perf_counter() - t0
    written = indexfile.save_index(idx, args.output)
    rows = [("input", args.input), ("engine", idx.kind), ("n", idx.n),
            ("nu", idx.nu), ("tau", idx.tau)]
    if idx.kind == "tgcsa":
        rows += [("sigma", idx.sigma), ("codec", idx.codec),
                 ("t_psi", idx.psi.t_psi)]
    size = idx.size_bits()
    rows += [("size_bits", size),
             ("bpc", size / idx.n if idx.n else 0.0),
             ("bytes_written", written),
             ("build_seconds", seconds)]
    _report(rows)
    return 0


class QueryError(ValueError):
    pass


def _parse_query(line: str):
    """One query line -> (op, args, sem-or-interval)."""
    toks = line.split()
    op = toks[0]
    if op not in ("D", "R", "E", "S", "A", "X"):
        raise QueryError(f"unknown operation {op!r}")
    flag = None
    if toks and toks[-1] in ("w", "s"):
        flag = toks.pop()
    if ".." in toks:
        k = toks.index("..")
        if k != len(toks) - 2:
            raise QueryError("expected a single end time after '..'")
        t_end = int(toks[k + 1])
        nums = [int(x) for x in toks[1:k]]
    else:
        t_end = None
        nums = [int(x) for x in toks[1:]]
    if flag is not None and (t_end is None or op not in ("D", "R", "E")):
        raise QueryError(f"a w/s flag does not apply to {op!r} here")
    want = {"D": 2, "R": 2, "E": 3, "S": 1, "A": 1, "X": 1}[op]
    if len(nums) != want:
        raise QueryError(f"{op} takes {want} numbers, got {len(nums)}")
    t = nums[-1]
    if op in ("A", "X"):
        return op, nums[:-1], (t, t_end)
    if t_end is None:
        sem = TimeSemantics.instant(t)
    elif flag == "w":
        sem = TimeSemantics.weak(t, t_end)
    else:
        sem = TimeSemantics.strong(t, t_end)
    return op, nums[:-1], sem


def _run_query(idx, parsed):
    op, args, sem = parsed
    if op == "D":
        return idx.direct_neighbors(args[0], sem)
    if op == "R":
        return idx.reverse_neighbors(args[0], sem)
    if op == "E":
        return idx.active_edge(args[0], args[1], sem)
    if op == "S":
        return idx.snapshot(sem)
    t, t_end = sem
    if op == "A":
        return idx.activated_edges(t, t_end)
    return idx.deactivated_edges(t, t_end)


def _format_result(op, res) -> str:
    if op == "E":
        return "true" if res else "false"
    if op in ("D", "R"):
        return " ".join(str(v) for v in res)
    return " ".join(f"({u},{v})" for u, v in res)


def cmd_query(args) -> int:
    idx = indexfile.load_index(args.index)
    source = open(args.queries) if args.queries else sys.stdin
    try:
        for ln, raw in enumerate(source, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                parsed = _parse_query(line)
                res = _run_query(idx, parsed)
            except (QueryError, ValueError) as exc:
                print(f"query line {ln}: {exc}", file=sys.stderr)
                return 2
            print(_format_result(parsed[0], res))
    finally:
        if args.queries:
            source.close()
    return 0


def _bench_workload(idx, count: int, seed: int):
    rng = XorShift64Star(seed)
    nu, tau = idx.nu, idx.tau
    if not (nu and tau):
        raise ValueError("the index has no vertices or times to draw bench queries from")

    def vertex():
        return rng.randint(1, nu)

    def instant():
        return rng.randint(1, tau)

    classes = [
        ("direct", [("D", [vertex()], TimeSemantics.instant(instant()))
                    for _ in range(count)]),
        ("reverse", [("R", [vertex()], TimeSemantics.instant(instant()))
                     for _ in range(count)]),
        ("edge", [("E", [vertex(), vertex()], TimeSemantics.instant(instant()))
                  for _ in range(count)]),
        ("snapshot", [("S", [], TimeSemantics.instant(instant()))
                      for _ in range(count)]),
        ("activated", [("A", [], (instant(), None)) for _ in range(count)]),
    ]
    if getattr(idx, "semantics", "interval") != "incremental":
        classes.append(
            ("deactivated", [("X", [], (instant(), None)) for _ in range(count)]))
    return classes


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    idx = indexfile.load_index(args.index)
    load_seconds = time.perf_counter() - t0
    classes = _bench_workload(idx, args.count, args.seed)
    rows = [("index", args.index), ("kind", idx.kind), ("n", idx.n),
            ("nu", idx.nu), ("tau", idx.tau), ("load_seconds", load_seconds),
            ("queries_per_class", args.count), ("repeats", args.repeat),
            ("warmups", args.warmup), ("timer", "process_time")]
    if idx.kind == "tgcsa":
        rows.insert(2, ("codec", idx.codec))

    def run_batch(queries):
        return [_run_query(idx, q) for q in queries]

    for name, queries in classes:
        for _ in range(args.warmup):
            run_batch(queries)
        times = []
        results = 0
        for rep in range(args.repeat):
            t0 = time.process_time()
            out = run_batch(queries)
            times.append(time.process_time() - t0)
            if rep == 0:
                results = sum(1 if isinstance(r, bool) else len(r) for r in out)
        per_query = [t / len(queries) * 1e6 for t in times]
        rows += [(f"{name}.queries", len(queries)),
                 (f"{name}.results", results),
                 (f"{name}.us_per_query_mean", statistics.mean(per_query)),
                 (f"{name}.us_per_query_median", statistics.median(per_query))]
        if results:
            per_res = [t / results * 1e6 for t in times]
            rows += [(f"{name}.us_per_result_mean", statistics.mean(per_res)),
                     (f"{name}.us_per_result_median", statistics.median(per_res))]
    _report(rows)
    return 0


def _parse_dist(text: str):
    name, _, param = text.partition(":")
    if name not in ("uniform", "pareto"):
        raise argparse.ArgumentTypeError(f"unknown distribution {name!r}")
    if name == "uniform":
        return name, int(param or 1)
    return name, float(param or 1.5)


def _int_from(low: int):
    """argparse type for an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def cmd_gen(args) -> int:
    if args.profile == "ba":
        dist, param = args.dist
        spec = GenSpec(nu=args.vertices, m=args.m, lifetime=args.lifetime,
                       dist=dist, dist_param=param, overlap=args.overlap,
                       seed=args.seed)
        cs = synth.generate(spec)
        header = (f"profile: ba m={args.m} dist={dist}:{param} "
                  f"overlap={args.overlap}",)
    elif args.profile == "icomm":
        cs = synth.preset_icomm(args.vertices, args.lifetime, args.seed)
        header = ("profile: icomm",)
    else:
        cs = synth.preset_powerlaw(args.vertices, args.seed)
        header = ("profile: powerlaw",)
    header += (f"vertices={cs.nu} lifetime={cs.tau} seed={args.seed}",)
    stats = dataset_stats(cs)
    if args.output:
        with open(args.output, "w") as fh:
            write_contacts(cs, fh, header=header)
        _report(sorted(stats.items()))
    else:
        write_contacts(cs, sys.stdout, header=header)
        _report(sorted(stats.items()), fh=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    cs = _load(args)
    stats = dataset_stats(cs)
    if args.format == "kv":
        _report(stats.items())
    else:
        width = max(len(k) for k in stats)
        for k, v in stats.items():
            print(f"{k:<{width}}  {_fmt(v)}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tgcsa",
        description="Compressed self-index for temporal graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index from a contact file")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--engine", choices=("tgcsa", "edgelog"), default="tgcsa")
    p.add_argument("--codec", choices=sorted(psienc.TAGS), default="vbyte-rle")
    p.add_argument("--t-psi", type=int, default=64, dest="t_psi")
    _add_contact_args(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="answer a batch of query lines")
    p.add_argument("index")
    p.add_argument("--queries", help="query file (default: stdin)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("bench", help="time the query classes")
    p.add_argument("index")
    p.add_argument("--count", type=_int_from(1), default=100,
                   help="queries per class (default 100)")
    p.add_argument("--repeat", type=_int_from(1), default=3)
    p.add_argument("--warmup", type=_int_from(0), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate a synthetic contact file")
    gsub = p.add_subparsers(dest="profile", required=True)
    g = gsub.add_parser("ba", help="preferential attachment")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--dist", type=_parse_dist, default=("uniform", 1),
                   help="contacts per edge, e.g. uniform:5 or pareto:1.5")
    g.add_argument("--lifetime", type=int, required=True)
    g.add_argument("--overlap", choices=("allow", "forbid"), default="allow")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output")
    g = gsub.add_parser("icomm", help="communication-network profile")
    g.add_argument("--vertices", type=int, default=100)
    g.add_argument("--lifetime", type=int)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output")
    g = gsub.add_parser("powerlaw", help="power-law profile")
    g.add_argument("--vertices", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="summarize a contact file")
    p.add_argument("input")
    p.add_argument("--format", choices=("table", "kv"), default="table")
    _add_contact_args(p)
    p.set_defaults(func=cmd_stats)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"tgcsa: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("tgcsa: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
