"""Command-line front end: JSON state files in, deterministic reports out.

State file schema (version 1)::

    {
      "format": 1,
      "dimension": 6,           # 6..9
      "degree": 3,
      "scalar_mode": "rational",  # or "float"
      "amplitudes": [
        {"indices": [1, 2, 3], "re": "1", "im": "0"},
        ...
      ]
    }

In rational mode ``re``/``im`` are fraction strings ("p/q", "p", or a decimal
with an exponent within +-``MAX_EXPONENT``); in float mode they are finite
decimal strings; JSON numbers read as their text.  Indices are 1-based
integers (not booleans) and pairwise distinct; non-increasing triples are
normalized by permutation sign on load and duplicate index sets are rejected.

Exit codes: 0 classified, 2 input error, 3 unclassified.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction

from . import __version__
from .classify import classify
from .exterior import (AltTensor, canonical_state, embed_three_qubits,
                       embed_three_qutrits, mask_of, slocc_apply, sort_indices)
from .invariants import qutrit_normal_form_coefficients, qutrit_normal_invariants
from .scalars import GaussianRational, normal_form, to_complex
from .spectra import occupation_spectrum, one_matrix, pinning_analysis

FORMAT_VERSION = 1


class CliError(Exception):
    """Input error; the message names the offending field."""


# ---------------------------------------------------------------------------
# scalar and state (de)serialization


_LONG_FRACTION = re.compile(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*")
_EXPONENT = re.compile(r"[eE]([+-]?\d[\d_]*)\s*\Z")
MAX_EXPONENT = 4300  # CPython's int-string limit; Fraction("1e999999999") hangs
# decimal digits (and bits) that one int() or str() call converts: far under
# the smallest limit sys.set_int_max_str_digits accepts, 640 digits
_DIGIT_PIECE = 500
_BIT_PIECE = 1600


def _int_of_digits(s: str) -> int:
    """int(s) for a string of decimal digits of any length.

    ``int`` refuses one past ``sys.get_int_max_str_digits()`` digits and
    takes quadratic time.  Here the two halves are read apart and joined as
    hi * 10^k + lo, so every ``int`` call reads at most ``_DIGIT_PIECE``
    digits and the products run at Karatsuba speed.
    """
    if len(s) <= _DIGIT_PIECE:
        return int(s)
    powers = {}

    def read(s):
        if len(s) <= _DIGIT_PIECE:
            return int(s)
        k = len(s) // 2
        power = powers.get(k)
        if power is None:
            power = powers[k] = 10 ** k
        return read(s[:-k]) * power + read(s[-k:])

    return read(s)


def _digits_of_int(n: int) -> str:
    """str(n) for an int of any size.

    ``str`` refuses one past ``sys.get_int_max_str_digits()`` digits and
    takes quadratic time.  Here the low and high halves of the bits are
    converted apart and joined in ``Decimal`` arithmetic, lo + hi * 2^k,
    whose huge products are subquadratic; every ``Decimal(int)`` call takes
    at most ``_BIT_PIECE`` bits.
    """
    if n.bit_length() <= _BIT_PIECE:
        return str(n)
    if n < 0:
        return "-" + _digits_of_int(-n)
    ctx = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    powers = {}

    def convert(n, bits):
        if bits <= _BIT_PIECE:
            return Decimal(n)
        k = bits // 2
        hi = n >> k
        power = powers.get(k)
        if power is None:
            power = powers[k] = ctx.power(Decimal(2), k)
        return ctx.add(convert(n - (hi << k), k),
                       ctx.multiply(convert(hi, bits - k), power))

    return str(convert(n, n.bit_length()))


def _long_fraction(s: str):
    """Fraction(s), an ``int`` when s is an integer.  An integer or p/q
    string of any length is read by :func:`_int_of_digits`; a decimal
    exponent beyond ``MAX_EXPONENT`` is a ValueError; any other string gets
    ``Fraction``'s own value or error."""
    m = _LONG_FRACTION.fullmatch(s)
    if m is None:
        e = _EXPONENT.search(s)
        digits = e.group(1).replace("_", "").lstrip("+-0") if e else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"decimal exponent beyond +-{MAX_EXPONENT}: {s!r}")
        return Fraction(s)
    sign, num, den = m.groups()
    num = -_int_of_digits(num) if sign == "-" else _int_of_digits(num)
    return num if den is None else Fraction(num, _int_of_digits(den))


def _parse_scalar(entry, mode, where):
    re_s = entry.get("re", "0")
    im_s = entry.get("im", "0")
    # JSON strings and numbers only; a boolean is an int to Python
    if not {type(re_s), type(im_s)} <= {str, int, float}:
        raise CliError(f"{where}: bad scalar (re and im must be strings or numbers)")
    try:
        if mode == "rational":
            x, y = _long_fraction(str(re_s)), _long_fraction(str(im_s))
            return normal_form(GaussianRational(x, y))
        x = float(re_s)
        y = float(im_s)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CliError(f"{where}: bad scalar ({exc})") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise CliError(f"{where}: scalar must be finite")
    return complex(x, y)


def _exact_str(q) -> str:
    """str(q) for an exact real of any size (see :func:`_digits_of_int`)."""
    q = normal_form(q)
    if type(q) is int:
        return _digits_of_int(q)
    return f"{_digits_of_int(q.numerator)}/{_digits_of_int(q.denominator)}"


def _format_scalar(value, mode):
    if mode == "rational":
        return _exact_str(value.real), _exact_str(value.imag)
    c = to_complex(value)
    return repr(c.real), repr(c.imag)


def parse_state(doc) -> tuple:
    """(AltTensor, mode) from a state-file dict; raises CliError on bad input."""
    if not isinstance(doc, dict):
        raise CliError("document: must be a JSON object")
    # an integer field is a JSON integer: true and 1.0 compare equal to 1
    fmt, degree = doc.get("format"), doc.get("degree")
    if type(fmt) is not int or fmt != FORMAT_VERSION:
        raise CliError("format: expected version 1")
    dim = doc.get("dimension")
    if not isinstance(dim, int) or not 6 <= dim <= 9:
        raise CliError("dimension: must be an integer in 6..9")
    if type(degree) is not int or degree != 3:
        raise CliError("degree: must be 3")
    mode = doc.get("scalar_mode")
    if mode not in ("rational", "float"):
        raise CliError("scalar_mode: must be 'rational' or 'float'")
    amps = doc.get("amplitudes")
    if not isinstance(amps, list):
        raise CliError("amplitudes: must be a list")
    coeffs = {}
    for pos, entry in enumerate(amps):
        where = f"amplitudes[{pos}]"
        if not isinstance(entry, dict):
            raise CliError(f"{where}: must be an object")
        idx = entry.get("indices")
        if (not isinstance(idx, list) or len(idx) != 3
                or any(type(i) is not int for i in idx)):
            raise CliError(f"{where}.indices: need three integers")
        if any(not 1 <= i <= dim for i in idx):
            raise CliError(f"{where}.indices: out of range 1..{dim}")
        sign, st = sort_indices(idx)
        if sign == 0:
            raise CliError(f"{where}.indices: repeated index")
        m = mask_of(st)
        if m in coeffs:
            raise CliError(f"{where}.indices: duplicate index set {list(st)}")
        val = _parse_scalar(entry, mode, where)
        # the sign as from_terms applies it: the same float bits and zeros
        coeffs[m] = sign * val if sign < 0 else val
    return AltTensor(dim, 3, coeffs), mode


def state_document(p: AltTensor, mode: str) -> dict:
    amps = []
    for t, v in p.terms():
        re_s, im_s = _format_scalar(v, mode)
        amps.append({"indices": list(t), "re": re_s, "im": im_s})
    return {
        "format": FORMAT_VERSION,
        "dimension": p.dim,
        "degree": 3,
        "scalar_mode": mode,
        "amplitudes": amps,
    }


def _read_document(path):
    """The JSON document in the file ``path``; a file that cannot be read or
    parsed is a :class:`CliError` naming ``input``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"input: cannot read {path} ({exc})") from None
    except ValueError as exc:  # JSONDecodeError, or an over-long number
        raise CliError(f"input: invalid JSON ({exc})") from None
    except RecursionError:
        raise CliError("input: invalid JSON (nested too deeply)") from None


def load_state(path) -> tuple:
    return parse_state(_read_document(path))


def emit(doc, stream=None):
    stream = stream or sys.stdout
    json.dump(doc, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _emit_to(doc, path):
    """:func:`emit` ``doc`` into the file ``path``, or to stdout without
    one; a file that cannot be written is a :class:`CliError` naming
    ``out``."""
    if not path:
        emit(doc)
        return
    try:
        with open(path, "w") as fh:
            emit(doc, fh)
    except OSError as exc:
        raise CliError(f"out: cannot write {path} ({exc})") from None


# ---------------------------------------------------------------------------
# report assembly


def _value_field(value, mode, degree, zero):
    """Report field of an invariant whose zero flag is already decided."""
    field = {"degree": degree, "zero": zero}
    field["re"], field["im"] = _format_scalar(value, mode)
    return field


def _spectrum_section(p: AltTensor, label: str) -> dict:
    """Occupations, polytope constraints and pinning of a six- or seven-mode
    state of class ``label``, from one one-matrix."""
    rho = one_matrix(p)
    spec = occupation_spectrum(p, rho=rho)
    pin = pinning_analysis(p, label, rho=rho)
    return {
        "occupations_descending": [float(x) for x in spec.eigenvalues],
        "constraints": pin["constraints"],
        "pinning": {
            "support_pattern": pin["support_pattern"],
            "consistent": pin["consistent"],
            "violations": pin["violations"],
        },
    }


def build_report(p: AltTensor, mode: str, real: bool = False) -> dict:
    label = classify(p, real_mode=real)
    report = {
        "format": FORMAT_VERSION,
        "tool": {"name": "trivec", "version": __version__},
        "arithmetic": "exact" if mode == "rational" else "float",
        "input": {
            "dimension": p.dim,
            "degree": 3,
            "amplitude_count": len(p.masks()),
            "norm_sq": _format_scalar(p.norm_sq(), mode)[0],
        },
        "classification": {
            "dimension": p.dim,
            "label": label.label,
            "signature": list(_jsonable(x) for x in label.signature),
        },
        "invariants": {},
        "spectrum": None,
    }
    inv = report["invariants"]
    for name, (value, degree) in label.invariants.items():
        inv[name] = _value_field(value, mode, degree, label.zero[name])
    if "delta132_confidence" in label.detail:
        inv["Delta132"]["confidence"] = label.detail["delta132_confidence"]
    if "rank_T" in label.detail:
        report["classification"]["rank_T"] = label.detail["rank_T"]
    if p.dim in (6, 7) and not p.is_zero():
        report["spectrum"] = _spectrum_section(p, label.label)
    return report


def _jsonable(x):
    if isinstance(x, bool) or isinstance(x, int):
        return x
    return str(x)


# ---------------------------------------------------------------------------
# commands


def cmd_classify(args) -> int:
    p, mode = load_state(args.input)
    if args.mode:
        want = "rational" if args.mode == "exact" else "float"
        if want != mode:
            raise CliError(f"mode: file is {mode}, requested {args.mode}")
    if args.real and any(v.imag for v in p.masks().values()):
        raise CliError("real: state has nonreal amplitudes")
    report = build_report(p, mode, real=args.real)
    emit(report)
    return 0 if report["classification"]["label"] != "Unclassified" else 3


def _check_dim(dim):
    if not 6 <= dim <= 9:
        raise CliError("dim: must be an integer in 6..9")


def cmd_canonical(args) -> int:
    _check_dim(args.dim)
    params = ()
    if args.params:
        try:
            params = tuple(_long_fraction(tok) for tok in args.params.split(","))
        except ValueError as exc:
            raise CliError(f"params: {exc}") from None
        except ZeroDivisionError as exc:
            raise CliError(f"params: zero denominator ({exc})") from None
    try:
        p = canonical_state(args.dim, args.cls, params)
    except KeyError as exc:
        raise CliError(f"class: {exc.args[0]}") from None
    except ValueError as exc:
        raise CliError(f"params: {exc}") from None
    _emit_to(state_document(p, "rational"), args.out)
    return 0


def cmd_random(args) -> int:
    import cmath
    from .oracle import random_invertible, random_state
    if args.slocc_of:
        p, mode = load_state(args.slocc_of)
        g = random_invertible(p.dim, args.seed)
        out = slocc_apply(g, p)
        if mode == "float" and not all(map(cmath.isfinite, out.masks().values())):
            raise CliError("slocc-of: a moved amplitude is beyond the double range")
    else:
        if args.dim is None:
            raise CliError("dim: required without --slocc-of")
        _check_dim(args.dim)
        out = random_state(args.dim, args.seed)
        mode = "rational"
    _emit_to(state_document(out, mode), args.out)
    return 0


def _parse_psi(doc, count, mode, labels, rule):
    """{index tuple: amplitude} of an embed document of at most ``count``
    entries labelled from ``labels``; ``rule`` states them in an error."""
    if not isinstance(doc, dict):
        raise CliError("document: must be a JSON object")
    amps = doc.get("amplitudes")
    if not isinstance(amps, list) or len(amps) > count:
        raise CliError(f"amplitudes: expected at most {count} entries")
    psi = {}
    for pos, entry in enumerate(amps):
        where = f"amplitudes[{pos}]"
        if not isinstance(entry, dict):
            raise CliError(f"{where}: must be an object")
        idx = entry.get("indices")
        if (not isinstance(idx, list) or len(idx) != 3
                or any(type(i) is not int for i in idx)):
            raise CliError(f"{where}.indices: need three integer labels")
        if any(i not in labels for i in idx):
            raise CliError(f"{where}.indices: {rule}, got {idx}")
        key = tuple(idx)
        if key in psi:
            raise CliError(f"{where}.indices: duplicate {idx}")
        psi[key] = _parse_scalar(entry, mode, where)
    return psi


def cmd_embed(args) -> int:
    mode = args.mode or "exact"
    mode = "rational" if mode == "exact" else "float"
    doc = _read_document(args.input)
    if args.type == "qubit3":
        psi = _parse_psi(doc, 8, mode, (0, 1), "qubit labels are 0/1")
        p = embed_three_qubits(psi)
    else:
        psi = _parse_psi(doc, 27, mode, (1, 2, 3), "qutrit labels are 1..3")
        p = embed_three_qutrits(psi)
    doc = state_document(p, mode)
    if args.out:
        _emit_to(doc, args.out)
    report = {"embedded": doc if not args.out else {"written_to": args.out},
              "classification": None}
    label = classify(p)
    report["classification"] = {"dimension": p.dim, "label": label.label}
    if args.type == "qutrit3":
        nf = qutrit_normal_form_coefficients(psi)
        if nf is not None and mode == "rational":
            vals = qutrit_normal_invariants(*nf)
            verdicts = {k: _value_field(vals[k], mode, deg, not vals[k])
                        for k, deg in (("D36", 36), ("D24", 24), ("D21", 21))}
            report["qutrit_family_separation"] = verdicts
        else:
            report["qutrit_family_separation"] = None
    emit(report)
    return 0


def cmd_rdm(args) -> int:
    p, mode = load_state(args.input)
    if p.is_zero():
        raise CliError("amplitudes: zero state has no density matrix")
    report = {
        "format": FORMAT_VERSION,
        "tool": {"name": "trivec", "version": __version__},
        "dimension": p.dim,
    }
    if p.dim in (6, 7):
        label = classify(p).label
        report.update(_spectrum_section(p, label))
        report["pinning"]["class_label"] = label
    else:
        spec = occupation_spectrum(p)
        report["occupations_descending"] = [float(x) for x in spec.eigenvalues]
        report["constraints"] = None
        report["note"] = "polytope constraints are tabulated for 6 and 7 modes only"
    emit(report)
    return 0


def cmd_selfcheck(args) -> int:
    from .oracle import selfcheck
    results = selfcheck(verbose=True)
    bad = [name for name, ok in results if not ok]
    emit({"checks": [{"name": n, "ok": ok} for n, ok in results],
          "passed": not bad})
    return 0 if not bad else 1


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="trivec",
        description="Classify pure three-fermion states (6..9 modes), "
                    "compute their invariants and occupation spectra.")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a state file")
    c.add_argument("--input", required=True)
    c.add_argument("--real", action="store_true",
                   help="real classification (splits the generic class)")
    c.add_argument("--mode", choices=("exact", "float"))
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("canonical", help="write a canonical representative")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--class", dest="cls", required=True)
    c.add_argument("--params", help="comma-separated family parameters")
    c.add_argument("--out")
    c.set_defaults(func=cmd_canonical)

    c = sub.add_parser("random", help="random state or random group image")
    c.add_argument("--dim", type=int)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--slocc-of", dest="slocc_of",
                   help="apply a random invertible element to this state file")
    c.add_argument("--out")
    c.set_defaults(func=cmd_random)

    c = sub.add_parser("embed", help="embed qubit/qutrit amplitudes")
    c.add_argument("--type", choices=("qubit3", "qutrit3"), required=True)
    c.add_argument("--input", required=True)
    c.add_argument("--out")
    c.add_argument("--mode", choices=("exact", "float"))
    c.set_defaults(func=cmd_embed)

    c = sub.add_parser("rdm", help="occupation spectrum and pinning report")
    c.add_argument("--input", required=True)
    c.set_defaults(func=cmd_rdm)

    c = sub.add_parser("selfcheck", help="run the brute-force audit suite")
    c.set_defaults(func=cmd_selfcheck)
    return ap


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process; parsing leaves it as
    it was."""
    return make_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
