"""Command-line surface: build groups, compute transforms and verdicts,
inspect spectra and flows, and run the regression suites.

Exit codes: 0 computed, 1 suite failure, 2 input or validation error,
3 size cap exceeded. JSON output is deterministic apart from elapsed_ms,
the command's time from after parsing to just before output, so for radon
it includes writing a --matrix-csv file and the --kernel strings. main
builds its parser on the first call and reuses it, so it can be called
repeatedly in one process.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cache, partial
from time import perf_counter

from . import flows, geodesics, radon, spectral, verify
from .errors import CosetRadonError, GroupSpecError, parse_json, read_file, read_json
from .groups import (
    GroupTable,
    _canonical_table,
    _spec_int,
    from_cayley_table,
    from_name,
    invariant_factors,
    is_abelian,
    is_cyclic,
    make_semidirect,
)

__all__ = ["load_group", "main"]


def load_group(spec: str) -> GroupTable:
    """Resolve a group expression: name grammar or file:PATH ingestion.

    A file may hold {"table": [[...]]} for a raw Cayley table or
    {"semidirect": {"normal": SPEC, "acting": SPEC, "action": [[...]]}}.
    """
    return _load_group(spec, frozenset())


def _load_group(spec: str, loading: frozenset[str]) -> GroupTable:
    """load_group, inside the semidirect files whose real paths are in
    loading; a file that includes one of them is refused."""
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        raw = read_file(path, GroupSpecError)
        # a canonical table file is read without json, to the same outcome
        cells = _canonical_table(raw)
        data = parse_json(raw, path, GroupSpecError) if cells is None else None
        real = os.path.realpath(path)
        if real in loading:
            raise GroupSpecError(f"{path} includes itself through a semidirect spec")
        if cells is not None:
            return from_cayley_table(cells)
        if isinstance(data, dict) and "semidirect" in data:
            sd = data["semidirect"]
            needed = {"normal", "acting", "action"}
            if not isinstance(sd, dict) or not needed <= sd.keys():
                raise GroupSpecError(f"{path}: semidirect needs normal, acting, action")
            if not isinstance(sd["normal"], str) or not isinstance(sd["acting"], str):
                raise GroupSpecError(
                    f"{path}: semidirect normal and acting must be group expressions"
                )
            normal = _load_group(sd["normal"], loading | {real})
            acting = _load_group(sd["acting"], loading | {real})
            return make_semidirect(normal, acting, sd["action"])
        if isinstance(data, dict) and "table" in data:
            table = data["table"]
            if not isinstance(table, list):
                raise GroupSpecError(f"{path}: table must be a list of rows")
            order = data.get("order", len(table))
            if type(order) is not int or order != len(table):
                raise GroupSpecError(
                    f"{path}: order must be the int {len(table)}, the table's row "
                    f"count, not {order!r}"
                )
            return from_cayley_table(table)
        if isinstance(data, list):
            return from_cayley_table(data)
        raise GroupSpecError(f"{path} holds neither a table nor a semidirect spec")
    return from_name(spec)


def _dumps(payload: dict) -> str:
    """json.dumps(payload, sort_keys=True, indent=2), written faster when
    the payload holds a "kernel": a list of nonempty rows of strings that
    need no escaping, such as KernelBasis.entry_strings, the str() of each
    distinct value gathered by the basis's integer codes. Those rows are
    joined here, one entry a line as indent=2 lays them out, and spliced in
    where the rest of the payload, dumped by json, holds a marker."""
    if "kernel" not in payload:
        return json.dumps(payload, sort_keys=True, indent=2)
    marker = "\0kernel\0"  # no recipe holds a NUL
    text = json.dumps({**payload, "kernel": marker}, sort_keys=True, indent=2)
    rows = [
        '    [\n      "' + '",\n      "'.join(row) + '"\n    ]' for row in payload["kernel"]
    ]
    kernel = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return text.replace(json.dumps(marker), kernel, 1)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    """Print the payload as JSON, or the text lines.

    A reader that closes the pipe early (`| head -1`) ends the output, not
    the command, which still returns its own exit code. Standard output is
    then pointed at os.devnull, so the flush at exit cannot raise again.
    """
    try:
        for line in [_dumps(payload)] if args.json else text_lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stream with no descriptor has nothing left to flush to
        finally:
            os.close(devnull)


# ---------------------------------------------------------------------------
# subcommands: each returns its record, which main times and emits

_Record = tuple[dict, list[str], int]  # JSON payload, text lines, exit code


def cmd_group(args) -> _Record:
    g = load_group(args.spec)
    abelian = is_abelian(g)
    payload = {
        "group": g.recipe,
        "order": g.order,
        "abelian": abelian,
        "cyclic": is_cyclic(g),
        "invariant_factors": invariant_factors(g) if abelian else None,
    }
    lines = [
        f"group {g.recipe}: order {g.order}",
        f"  abelian: {abelian}, cyclic: {payload['cyclic']}",
    ]
    if abelian:
        lines.append(f"  invariant factors: {payload['invariant_factors']}")
    return payload, lines, 0


def cmd_geodesics(args) -> _Record:
    g = load_group(args.spec)
    if args.variant == "prime":
        geos = geodesics.prime_geodesics(g)
    else:
        geos = geodesics.maximal_geodesics(g)
    payload = {
        "group": g.recipe,
        "order": g.order,
        "variant": args.variant,
        "count": len(geos),
        "geodesics": [
            {
                "rep": geo.rep,
                "subgroup": list(geo.subgroup.elements),
                "coset": list(geo.coset),
            }
            for geo in geos
        ],
    }
    lines = [f"group {g.recipe}: {len(geos)} {args.variant} geodesics"]
    for geo in geos:
        lines.append(
            f"  rep {geo.rep}: subgroup {list(geo.subgroup.elements)} "
            f"coset {list(geo.coset)}"
        )
    return payload, lines, 0


def cmd_radon(args) -> _Record:
    g = load_group(args.spec)
    # the family is listed at most once, for the verdict and for any system
    family = cache(partial(geodesics._family_subgroups, g, args.variant))
    verdict = radon._group_verdict(g, args.variant, family)
    payload = {"group": g.recipe, **asdict(verdict)}
    lines = [
        f"group {g.recipe} ({args.variant}): "
        f"{'injective' if verdict.injective else 'noninjective'}",
        f"  order {verdict.order}, rows {verdict.rows}, rank {verdict.rank}, "
        f"kernel dim {verdict.kernel_dim} [{verdict.method}]",
    ]
    if verdict.frobenius_complement is not None:
        lines.append(f"  frobenius complement: {verdict.frobenius_complement}")
    if args.matrix_csv or (args.kernel and not verdict.injective):
        sys_ = radon._build_system(g, args.variant, family())
    if args.matrix_csv:
        try:
            with open(args.matrix_csv, "w", encoding="utf-8", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(list(range(sys_.ncols)))
                writer.writerows(row.tolist() for row in radon._array_rows(sys_))
        except OSError as exc:
            raise CosetRadonError(f"cannot write {args.matrix_csv}: {exc}")
        lines.append(f"  matrix written to {args.matrix_csv}")
    if args.kernel:
        kb = radon._NO_KERNEL if verdict.injective else radon._kernel(sys_)
        payload["kernel"] = kb.entry_strings()
        if not args.json:
            lines.append(f"  kernel basis ({kb.dim} vector{'s' * (kb.dim != 1)}):")
            lines.extend("    [" + ", ".join(vec) + "]" for vec in payload["kernel"])
    return payload, lines, 0


def _spectral_abelian_payload(g: GroupTable, tolerance: float) -> tuple[dict, list]:
    ct = spectral.characters(g)
    faithful = spectral.faithful_characters(ct)
    # C1 has no geodesics, so every f on it is in the kernel
    kernel_dim = radon.is_injective(g).kernel_dim if g.order > 1 else 1
    test_f = [Fraction((7 * x) % 11 - 5, 3) for x in range(g.order)]
    fourier_ok = spectral.fourier_radon_check(g, test_f, tolerance=tolerance, ct=ct)
    plancherel = spectral.plancherel_defect(ct, test_f)
    payload = {
        "group": g.recipe,
        "order": g.order,
        "factors": list(ct.factors),
        "exponent": ct.exponent,
        "characters": [list(c) for c in ct.characters],
        "faithful_count": len(faithful),
        "faithful_indices": faithful,
        "kernel_dim": kernel_dim,
        "kernel_matches_faithful": kernel_dim == len(faithful),
        "char_sum_exact": spectral.char_sum_check_characters(ct),
        "fourier_ok": fourier_ok,
        "plancherel_defect": plancherel,
        "tolerance": tolerance,
    }
    lines = [
        f"group {g.recipe}: abelian, factors {list(ct.factors)}, "
        f"exponent {ct.exponent}",
        f"  characters: {len(ct.characters)}, faithful: {len(faithful)}",
        f"  kernel dim {kernel_dim} "
        f"({'=' if payload['kernel_matches_faithful'] else '!='} faithful count)",
        f"  char-sum identity exact: {payload['char_sum_exact']}",
        f"  fourier identities within {tolerance}: {fourier_ok} "
        f"(plancherel defect {plancherel:.2e})",
    ]
    return payload, lines


def _spectral_rep_payload(g: GroupTable, reps) -> tuple[dict, list]:
    """The rep-based checks, all exact, so no tolerance applies."""
    homs = spectral._prime_homomorphisms(g)
    projections_ok = all(
        spectral.check_projection(g, rep, hom) for rep in reps for hom in homs
    )
    reports = [spectral.fixed_space_analysis(g, rep) for rep in reps]
    kernel_dim = radon.is_injective(g).kernel_dim if g.order > 1 else 1
    predicted = sum(r.kernel_dim * rep.dim for r, rep in zip(reports, reps))
    payload = {
        "group": g.recipe,
        "order": g.order,
        "rep_dims": [rep.dim for rep in reps],
        "char_sum_exact": spectral.char_sum_check(g, reps),
        "projections_ok": projections_ok,
        "dichotomies": [asdict(r) for r in reports],
        "kernel_dim": kernel_dim,
        "predicted_kernel_dim": predicted,
    }
    lines = [
        f"group {g.recipe}: {len(reps)} representations, dims "
        f"{payload['rep_dims']}",
        f"  completeness (char-sum) exact: {payload['char_sum_exact']}",
        f"  projection law exact: {projections_ok}",
        f"  kernel dim {kernel_dim}, predicted from fixed-point-free "
        f"reps: {predicted}",
    ]
    for r in reports:
        lines.append(
            f"  rep dim {r.dim}: fixed span {r.fixed_span_dim}, "
            f"kernel {r.kernel_dim}, dichotomy {r.dichotomy_ok}"
        )
    return payload, lines


def cmd_spectral(args) -> _Record:
    spectral._check_tolerance(args.tolerance)
    g = load_group(args.spec)
    if args.rep is None:
        if not is_abelian(g):
            raise GroupSpecError(
                f"{g.recipe} is not abelian; supply --rep FILE or --rep builtin:q8"
            )
        return *_spectral_abelian_payload(g, args.tolerance), 0
    if args.rep == "builtin:q8":
        reps = spectral.quaternion_rep_set(g)
    else:
        reps = [spectral.load_rep(args.rep, g)]
    return *_spectral_rep_payload(g, reps), 0


def _load_flow(spec: str) -> flows.SuccessorFlow:
    if spec.startswith("constant:"):
        text = spec[len("constant:") :]
        if not re.fullmatch("[0-9]+", text):
            raise GroupSpecError(f"flow size {text!r} is not an integer")
        return flows.constant_flow(_spec_int(text, spec))
    if spec.startswith("group:"):
        return flows.group_flow(load_group(spec[len("group:") :]))
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        data = read_json(path, GroupSpecError)
        if not isinstance(data, dict) or not {"size", "table"} <= data.keys():
            raise GroupSpecError(f"{path}: a flow file needs size and table")
        return flows.validate_flow(data["size"], data["table"], label=f"file:{path}")
    raise GroupSpecError(
        f"cannot parse flow {spec!r}; expected constant:M, group:SPEC or file:PATH"
    )


def cmd_flow(args) -> _Record:
    flow = _load_flow(args.spec)
    orbs = flows.flow_orbits(flow)
    nonstationary = [o for o in orbs if not o.stationary]
    sys_ = flows._orbit_system(flow, orbs)
    rank, kernel_dim, method = radon.decide_system(sys_)
    payload = {
        "flow": flow.label,
        "size": flow.size,
        "orbits": len(orbs),
        "stationary": len(orbs) - len(nonstationary),
        "periods": sorted(o.period for o in nonstationary),
        "projections": [list(o.projection()) for o in nonstationary],
        "rows": sys_.nrows,
        "rank": rank,
        "kernel_dim": kernel_dim,
        "injective": kernel_dim == 0,
        "method": method,
    }
    lines = [
        f"flow {flow.label} on {flow.size} points: {len(orbs)} orbits "
        f"({payload['stationary']} stationary)",
        f"  system: {payload['rows']} rows, rank {rank}, kernel dim "
        f"{kernel_dim} -> {'injective' if kernel_dim == 0 else 'noninjective'} "
        f"[{method}]",
    ]
    return payload, lines, 0


def cmd_verify(args) -> _Record:
    report = verify.run_suite(args.suite, max_order=args.max_order)
    payload = {
        "suite": report.suite,
        "total": report.total,
        "failed": report.failed,
        "passed": report.passed,
        "cases": [{**asdict(c), "pass": c.passed} for c in report.cases],
    }
    lines = [
        f"suite {report.suite}: {report.total - report.failed}/{report.total} "
        f"cases passed"
    ]
    for c in report.cases:
        if not c.passed:
            lines.append(f"  FAIL {c.group}: expected {c.expected!r}, "
                         f"got {c.computed!r}")
    return payload, lines, 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument wiring


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line, like every other input error."""

    def error(self, message):
        raise CosetRadonError(f"{self.prog}: {message}")


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coset-radon",
        description="Exact injectivity analysis for coset-sum transforms "
        "on finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, variant=True):
        p.add_argument("--json", action="store_true", help="emit JSON")
        if variant:
            p.add_argument(
                "--variant",
                choices=geodesics.VARIANTS,
                default="prime",
                help="geodesic family (default prime)",
            )

    p_group = sub.add_parser("group", help="build a group and print a summary")
    p_group.add_argument("spec", help="group expression or file:PATH")
    common(p_group, variant=False)
    p_group.set_defaults(func=cmd_group)

    p_geo = sub.add_parser("geodesics", help="list geodesics of a group")
    p_geo.add_argument("spec")
    common(p_geo)
    p_geo.set_defaults(func=cmd_geodesics)

    p_radon = sub.add_parser("radon", help="injectivity verdict for a group")
    p_radon.add_argument("spec")
    common(p_radon)
    p_radon.add_argument(
        "--matrix-csv", metavar="PATH", help="dump the incidence matrix as CSV"
    )
    p_radon.add_argument(
        "--kernel", action="store_true", help="print an exact kernel basis"
    )
    p_radon.set_defaults(func=cmd_radon)

    p_spec = sub.add_parser(
        "spectral", help="character/representation analysis of a group"
    )
    p_spec.add_argument("spec")
    common(p_spec, variant=False)
    p_spec.add_argument(
        "--rep",
        metavar="PATH",
        help="matrix representation JSON, or builtin:q8",
    )
    p_spec.add_argument(
        "--tolerance",
        type=float,
        default=1e-9,
        help="numeric tolerance for Fourier identities (default 1e-9)",
    )
    p_spec.set_defaults(func=cmd_spectral)

    p_flow = sub.add_parser("flow", help="successor-flow orbits and verdict")
    p_flow.add_argument("spec", help="constant:M, group:SPEC, or file:PATH")
    common(p_flow, variant=False)
    p_flow.set_defaults(func=cmd_flow)

    p_verify = sub.add_parser("verify", help="run a regression suite")
    p_verify.add_argument("suite", help=", ".join(sorted(verify.SUITES)))
    common(p_verify, variant=False)
    p_verify.add_argument(
        "--max-order",
        type=int,
        default=None,
        help="override the suite's default sweep bound",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one command line: parse it, run its command, time it, emit its
    record and return its exit code."""
    try:
        args = _build_parser().parse_args(argv)
        t0 = perf_counter()
        payload, lines, code = args.func(args)
        payload["elapsed_ms"] = round((perf_counter() - t0) * 1000, 3)
        _emit(args, payload, lines)
        return code
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except CosetRadonError as exc:
        text = str(exc)
        if len(text.splitlines()) > 1:  # quoted input held a line break
            text = repr(text)[1:-1]
        print(f"error: {text}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
