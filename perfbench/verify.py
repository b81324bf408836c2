"""Check each operation's output against the oracle and count failures.

An operation fails when it raises on valid input, exits non-zero, prints
FAIL, prints output the checks cannot read, or reports an interval that
misses the oracle radius.  Every printed [lo, hi] is a certificate; it is
unconverged when its width exceeds the requested tol, which only a
certification stopped by max_iter leaves behind.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from cases import TOL

# f_m = ||X^m||_1^(1/m) never falls below the radius; allowance for the
# log-space round-off in f_m and for the oracle's own slack
GELFAND_RTOL = 1e-9


def _count(op):
    return int(op.args[op.args.index("--count") + 1])


def expected(op, cache):
    """Oracle radii, by output label, for everything ``op`` prints."""
    if op.command == "certify":
        return {"rho": cache.radius(op.mats["a"]),
                "rho_prime": cache.radius(op.mats["a_prime"])}
    if op.command != "converge":
        return {"rho": cache.radius(op.mats["a"], op.radius, op.blocks)}
    base, direction = op.mats["base"], op.mats["direction"]
    # the same float operations as the library's schedule c/k with c = 1
    terms = [base + (1.0 / k) * direction for k in range(1, _count(op) + 1)]
    radii = {"rho": cache.radius(base, op.radius, op.blocks)}
    radii.update({f"r{k}": cache.radius(t) for k, t in enumerate(terms, 1)})
    if op.blocks is not None:
        spectral = max(op.blocks, key=lambda b: cache.radius(base[np.ix_(b, b)]).value)
        radii.update({f"b{k}": cache.radius(t[np.ix_(spectral, spectral)])
                      for k, t in enumerate(terms, 1)})
    return radii


def _parse(stdout):
    """``key: value`` pairs and whitespace tables (first row the header)."""
    pairs, tables, current = {}, [], None
    for line in stdout.splitlines():
        if ": " in line:
            key, value = line.split(": ", 1)
            pairs[key] = value
            current = None
        elif not line.strip():
            current = None
        elif current is None:
            current = {"header": line.split(), "rows": []}
            tables.append(current)
        else:
            current["rows"].append(dict(zip(current["header"], line.split())))
    return pairs, tables


@dataclass
class Outcome:
    ok: bool
    certs: int
    unconverged: int
    reason: str = ""


class _Check:
    def __init__(self, radii):
        self.radii = radii
        self.certs = 0
        self.unconverged = 0
        self.misses = []

    def interval(self, label, lo, hi):
        lo, hi = float(lo), float(hi)
        self.certs += 1
        self.unconverged += not (hi - lo <= TOL)
        if not self.radii[label].contained_in(lo, hi):
            self.misses.append(f"{label} [{lo!r}, {hi!r}] misses "
                               f"{mpmath.nstr(self.radii[label].value, 22)}")

    def outcome(self, extra=""):
        reason = "; ".join(self.misses + ([extra] if extra else []))
        return Outcome(not reason, self.certs, self.unconverged, reason)


def check(op, out, radii) -> Outcome:
    if "error" in out:
        return Outcome(False, 0, 0, "raised " + out["error"])
    c = _Check(radii)
    if op.command == "root":
        c.interval("rho", out["lo"], out["hi"])
        return c.outcome()
    if out["rc"] != 0:
        return Outcome(False, 0, 0, f"exit {out['rc']}: {out['stderr'].strip()}")
    if "FAIL" in out["stdout"]:
        return Outcome(False, 0, 0, "printed FAIL")
    try:
        extra = _check_cli(op, c, *_parse(out["stdout"]))
    except (KeyError, ValueError, IndexError) as exc:
        return Outcome(False, c.certs, c.unconverged, f"unreadable output: {exc!r}")
    return c.outcome(extra)


def _check_cli(op, c, pairs, tables):
    c.interval("rho", pairs["rho_lo"], pairs["rho_hi"])
    if op.command == "certify":
        c.interval("rho_prime", pairs["rho_prime_lo"], pairs["rho_prime_hi"])
        if not c.radii["rho_prime"].contained_in(
                float(pairs["enclosure_lo"]), float(pairs["enclosure_hi"])):
            return "enclosure misses the perturbed radius"
        return "" if pairs["soundness"] == "PASS" else "soundness not PASS"
    if op.command == "converge":
        rows = next(t for t in tables if t["header"][0] == "k")["rows"]
        if len(rows) != _count(op):
            return "wrong number of trace rows"
        for row in rows:
            c.interval(f"r{row['k']}", row["r_lo"], row["r_hi"])
            if "b_lo" in row:
                c.interval(f"b{row['k']}", row["b_lo"], row["b_hi"])
    if op.command == "gelfand":
        rows = next(t for t in tables if t["header"][0] == "m")["rows"]
        floor = float(c.radii["rho"].value) * (1.0 - GELFAND_RTOL)
        low = [row["m"] for row in rows if not float(row["f_m"]) >= floor]
        if low or not rows or not math.isfinite(floor):
            return f"f_m below the radius at m={low}"
    if op.command in ("converge", "gelfand") and pairs.get("result") != "PASS":
        return "result not PASS"
    return ""
