"""Command-line interface.

Usage:
    weightmult mult   <system> <lam> <mu> [flags]
    weightmult char   <system> <lam> [flags]
    weightmult dim    <system> <lam> [flags]
    weightmult verify <system> <lam> [flags]
    weightmult bench  <system> <lam> <mu> [flags]

where ``<system>`` is a family letter plus rank (``A4``, ``G2``),
``<lam>`` is a bracketed coordinate list ``[1,1,0,1]``, and ``<mu>`` is
either another bracketed list or an expression ``L-a1-2*a3`` meaning
``lam`` minus the stated simple roots.  Flags: ``--format {text,machine}``,
``--trace {off,summary,full}``, ``--algorithm {auto,classical,fast}``,
``--oracle-cap N``.

Exit codes: 0 success, 1 verification divergence (including a dim or
bench cross-check mismatch), 2 parse error, 3 domain error, 4 Weyl-group
cap exceeded during a verify that found no divergence.

Parse errors carry the byte offset inside the offending argument plus the
set of tokens that would have been accepted there.
"""

from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .errors import ParseError, RankMismatch, WeightMultError
from .multiplicity import ALGORITHMS, MultContext, _character, dimension, multiplicity
from .oracle import DEFAULT_CAP, verify_module
from .rootsys import build_root_system, root_to_weight_coords, weyl_dimension

__all__ = ["Query", "parse_query", "render_query", "run", "main"]

FORMATS = ("text", "machine")
TRACE_LEVELS = ("off", "summary", "full")
# Every flag with its allowed values, in rendering order; None means a positive integer.
_FLAGS = {"format": FORMATS, "trace": TRACE_LEVELS, "algorithm": ALGORITHMS, "oracle-cap": None}

_SYSTEM_RE = re.compile(r"([A-G])([0-9]+)")
# the one integer grammar, of coordinates and flag values alike; \d is the
# Unicode decimal digits, exactly the digits int() accepts
_INT_RE = re.compile(r"-?\d+")
_WS_RE = re.compile(r"\s*")


@dataclass(frozen=True)
class Query:
    """One fully parsed invocation; renderable back to an identical argv."""

    command: str
    family: str
    rank: int
    lam: tuple
    mu_spec: Optional[tuple] = None  # ("coords", tuple) | ("expr", tuple of coeffs)
    format: str = "text"
    trace: str = "summary"
    algorithm: str = "auto"
    oracle_cap: int = DEFAULT_CAP


# -- parsing -------------------------------------------------------------------


def _parse_int_at(text: str, pos: int, what: str) -> Tuple[int, int]:
    m = _INT_RE.match(text, pos)
    if m is None:
        raise ParseError(f"expected {what}", pos, ("integer",))
    return int(m.group()), m.end()


def _parse_bracket(text: str, rank: int, what: str) -> tuple:
    if not text.startswith("["):
        raise ParseError(f"{what} must start with '['", 0, ("[",))
    coords = []
    pos = 1
    while True:
        if pos >= len(text):
            raise ParseError(f"unterminated {what}", pos, ("integer", "]"))
        if text[pos] == "]" and not coords:
            pos += 1
            break
        value, pos = _parse_int_at(text, pos, "coordinate")
        coords.append(value)
        if pos >= len(text):
            raise ParseError(f"unterminated {what}", pos, (",", "]"))
        if text[pos] == ",":
            pos += 1
            continue
        if text[pos] == "]":
            pos += 1
            break
        raise ParseError(f"bad character in {what}", pos, (",", "]"))
    if pos != len(text):
        raise ParseError(f"trailing input after {what}", pos, ("end of argument",))
    if len(coords) != rank:
        raise RankMismatch(f"{what} lists {len(coords)} coordinates, rank is {rank}")
    return tuple(coords)


def _skip_ws(text: str, pos: int) -> int:
    return _WS_RE.match(text, pos).end()


def _parse_mu_expr(text: str, rank: int) -> tuple:
    """Parse ``L - c1*a1 - a3 ...`` into the coefficient vector of the roots."""
    coeffs = [0] * rank
    pos = _skip_ws(text, 0)
    if pos >= len(text) or text[pos] != "L":
        raise ParseError("expression must start with the highest weight", pos, ("L",))
    pos = _skip_ws(text, pos + 1)
    while pos < len(text):
        if text[pos] != "-":
            raise ParseError("expected a subtracted root term", pos, ("-", "end of argument"))
        pos = _skip_ws(text, pos + 1)
        coeff = 1
        if pos < len(text) and text[pos].isdecimal():
            coeff, pos = _parse_int_at(text, pos, "coefficient")
            pos = _skip_ws(text, pos)
            if pos >= len(text) or text[pos] != "*":
                raise ParseError("coefficient must be followed by '*'", pos, ("*",))
            pos = _skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] != "a":
            raise ParseError("expected a simple-root symbol", pos, ("a<index>",))
        start = pos + 1
        index, pos = _parse_int_at(text, start, "root index")
        if not 1 <= index <= rank:
            raise ParseError(
                f"root index {index} outside 1..{rank}", start,
                tuple(f"a{r}" for r in range(1, rank + 1)),
            )
        coeffs[index - 1] += coeff
        pos = _skip_ws(text, pos)
    return tuple(coeffs)


def _parse_flag(name: str, value: str):
    if name not in _FLAGS:
        raise ParseError(f"unknown flag --{name}", 0, tuple(f"--{flag}" for flag in _FLAGS))
    allowed = _FLAGS[name]
    if allowed is not None:
        if value not in allowed:
            raise ParseError(f"bad value for {name}", 0, allowed)
        return value
    if _INT_RE.fullmatch(value) is None:
        raise ParseError(f"{name} must be an integer", 0, ("integer",))
    number = int(value)
    if number <= 0:
        raise ParseError(f"{name} must be positive", 0, ("positive integer",))
    return number


def parse_query(argv: Sequence[str]) -> Query:
    """Turn an argument vector into a `Query`.

    Raises `ParseError` (bad token, with offset and expected set) or
    `RankMismatch` (bracket arity differs from the declared rank).
    """
    args = list(argv)
    if not args:
        raise ParseError("missing command", 0, tuple(_VERBS))
    command = args.pop(0)
    if command not in _VERBS:
        raise ParseError(f"unknown command {command!r}", 0, tuple(_VERBS))
    if not args:
        raise ParseError("missing system", 0, ("A<l>..G<l>",))
    m = _SYSTEM_RE.fullmatch(args[0])
    if m is None:
        raise ParseError(f"bad system token {args[0]!r}", 0, ("A<l>..G<l>",))
    args.pop(0)
    family, rank = m.group(1), int(m.group(2))

    positional = []
    flags = {}
    while args:
        tok = args.pop(0)
        if tok.startswith("--"):
            name, eq, value = tok[2:].partition("=")
            if not eq:
                if not args:
                    raise ParseError(f"flag --{name} needs a value", len(tok), ("value",))
                value = args.pop(0)
            flags[name.replace("-", "_")] = _parse_flag(name, value)
        else:
            positional.append(tok)

    wants_mu = command in ("mult", "bench")
    expected_pos = 2 if wants_mu else 1
    if len(positional) < 1:
        raise ParseError("missing highest-weight argument", 0, ("[a1,...,al]",))
    if len(positional) < expected_pos:
        raise ParseError("missing weight argument", 0, ("[m1,...,ml]", "L-..."))
    if len(positional) > expected_pos:
        raise ParseError(f"unexpected argument {positional[expected_pos]!r}", 0, ("flag",))

    lam = _parse_bracket(positional[0], rank, "highest weight")
    mu_spec = None
    if wants_mu:
        mu_text = positional[1]
        if mu_text.startswith("["):
            mu_spec = ("coords", _parse_bracket(mu_text, rank, "weight"))
        else:
            mu_spec = ("expr", _parse_mu_expr(mu_text, rank))
    return Query(command=command, family=family, rank=rank, lam=lam, mu_spec=mu_spec, **flags)


def render_query(query: Query) -> list:
    """Canonical argv for a query; parsing it back yields an equal Query."""
    out = [query.command, f"{query.family}{query.rank}", _fmt_weight(query.lam)]
    if query.mu_spec is not None:
        kind, payload = query.mu_spec
        if kind == "coords":
            out.append(_fmt_weight(payload))
        else:
            out.append("L" + "".join(
                f"-a{r}" if coeff == 1 else f"-{coeff}*a{r}"
                for r, coeff in enumerate(payload, start=1) if coeff > 0
            ))
    out.extend(f"--{name}={getattr(query, name.replace('-', '_'))}" for name in _FLAGS)
    return out


# -- execution -----------------------------------------------------------------


def _resolve_mu(rs, lam: tuple, mu_spec: tuple) -> tuple:
    kind, payload = mu_spec
    if kind == "coords":
        return payload
    return tuple(a - g for a, g in zip(lam, root_to_weight_coords(rs, payload)))


def _fmt_weight(mu: tuple) -> str:
    return "[" + ",".join(str(x) for x in mu) + "]"


def _render_trace(trace, level: str) -> str:
    if level == "off":
        return "(off)"
    if level == "summary":
        return " -> ".join(trace.kinds()) or "(none)"
    return trace.render()


def _pairs(counters) -> str:
    return " ".join(f"{k}={v}" for k, v in counters.as_dict().items())


def _counter_lines(counters, machine: bool, prefix: str = "counters") -> list:
    if machine:
        return [f"{prefix}.{k}: {v}" for k, v in counters.as_dict().items()]
    return [f"{prefix}: {_pairs(counters)}"]


def _run_mult(query: Query, rs) -> Tuple[int, list]:
    mu = _resolve_mu(rs, query.lam, query.mu_spec)
    ctx = MultContext(rs, query.lam, query.algorithm)
    value, trace = multiplicity(rs, query.lam, mu, algorithm=query.algorithm, ctx=ctx)
    machine = query.format == "machine"
    lines = [f"multiplicity: {value}"]
    if machine or query.trace != "off":
        lines.append(f"trace: {_render_trace(trace, query.trace)}")
    lines.extend(_counter_lines(ctx.counters, machine))
    return 0, lines


def _run_char(query: Query, rs) -> Tuple[int, list]:
    chart, coords = _character(rs, query.lam)
    heights = {mu: sum(coords[mu]) for mu in chart}
    order = sorted(chart, key=lambda mu: (-heights[mu], mu))
    machine = query.format == "machine"
    lines = [f"char.size: {len(order)}" if machine
             else f"{len(order)} dominant weights (decreasing height)"]
    for pos, mu in enumerate(order):
        if machine:
            lines += [f"char.{pos}.mu: {_fmt_weight(mu)}", f"char.{pos}.multiplicity: {chart[mu]}"]
        else:
            lines.append(f"mu={_fmt_weight(mu)} multiplicity={chart[mu]} height={heights[mu]}")
    return 0, lines


def _run_dim(query: Query, rs) -> Tuple[int, list]:
    by_sum = dimension(rs, query.lam)
    by_product = weyl_dimension(rs, query.lam)
    if query.format == "machine":
        lines = [f"dimension.character_sum: {by_sum}", f"dimension.weyl: {by_product}"]
    else:
        lines = [f"dimension: {by_sum} (character-sum) / {by_product} (weyl)"]
    return (0 if by_sum == by_product else 1), lines


def _run_verify(query: Query, rs) -> Tuple[int, list]:
    report = verify_module(rs, query.lam, cap=query.oracle_cap)
    machine = query.format == "machine"
    if machine:
        lines = [
            f"verify.passed: {str(report.passed).lower()}",
            f"verify.capped: {str(report.oracle_capped).lower()}",
            f"verify.weights: {len(report.rows)}",
            f"verify.dimension.character_sum: {report.dimension_character}",
            f"verify.dimension.weyl: {report.dimension_weyl}",
        ]
    else:
        lines = [report.summary()]
    for pos, (mu, m_auto, m_classical, m_kostant) in enumerate(report.rows):
        key = f"verify.{pos}: " if machine else "mu="
        kval = "-" if m_kostant is None else m_kostant
        lines.append(
            f"{key}{_fmt_weight(mu)} dispatcher={m_auto} classical={m_classical} kostant={kval}"
        )
    return (1 if not report.passed else 4 if report.oracle_capped else 0), lines


def _run_bench(query: Query, rs) -> Tuple[int, list]:
    mu = _resolve_mu(rs, query.lam, query.mu_spec)
    machine = query.format == "machine"
    lines = []
    values = {}
    for algorithm in ("classical", "fast"):
        samples = []
        for _ in range(5):
            ctx = MultContext(rs, query.lam, algorithm)
            start = time.perf_counter_ns()
            value, _trace = multiplicity(rs, query.lam, mu, algorithm=algorithm, ctx=ctx)
            samples.append(time.perf_counter_ns() - start)
            counters = ctx.counters
            values[algorithm] = value
        median_us = sorted(samples)[2] // 1000
        if machine:
            lines.append(f"bench.{algorithm}.median_us: {median_us}")
            lines.extend(_counter_lines(counters, True, prefix=f"bench.{algorithm}.counters"))
        else:
            lines.append(f"{algorithm:9s} median {median_us} us | {_pairs(counters)}")
    if values["classical"] != values["fast"]:
        lines.append(f"mismatch: classical {values['classical']} vs fast {values['fast']}")
        return 1, lines
    lines.append(f"multiplicity: {values['classical']}")
    return 0, lines


_VERBS = {"mult": _run_mult, "char": _run_char, "dim": _run_dim,
          "verify": _run_verify, "bench": _run_bench}


def run(query: Query) -> Tuple[int, str]:
    """Execute a parsed query; returns (exit code, rendered output)."""
    rs = build_root_system(query.family, query.rank)
    code, lines = _VERBS[query.command](query, rs)
    return code, "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code, output = run(parse_query(sys.argv[1:] if argv is None else argv))
    except WeightMultError as err:
        print(f"error: {err}", file=sys.stderr)
        # only the parser raises these two
        return 2 if isinstance(err, (ParseError, RankMismatch)) else 3
    if output:
        print(output)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
