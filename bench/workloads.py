"""The four benchmark workloads: inputs, operations, and oracles.

Each workload is a fixed cycle of operation classes.  Operation ``i`` runs
class ``i % n_classes`` on input instance ``(i // n_classes) % pool`` of that
class (``pool`` is POOL, or 1 for cli-cold).  Inputs are generated here, during set-up, from the workload seed with
NumPy alone -- never with ``hsdual``'s samplers -- so a change to the
program cannot change what it is fed.

Operations call the library through module attributes (``hd.duality.
hs_inverse``) looked up at call time, so a traced run sees the wrappers.
Oracles use NumPy, ``fractions`` and ``json`` only: they never call the code
under test.  An oracle returns None when the output is right and a one-line
reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

#: Contractual absolute tolerance of the library (max-norm), restated here so
#: the oracle does not read it from the code under test.
TOL = 1e-9

#: Input instances made per op class at set-up.
POOL = 64

KINDS = ("bounded", "self-adjoint", "positive", "effect", "density")
_KIND_ENUM = {
    "bounded": "BOUNDED",
    "self-adjoint": "SELF_ADJOINT",
    "positive": "POSITIVE",
    "effect": "EFFECT",
    "density": "DENSITY",
}


# --- input generation (NumPy only) ---------------------------------------------


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def gaussian(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0 * d)


def hermitian(M):
    return (M + M.conj().T) / 2.0


def unitary(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases


def effect(rng, d):
    U = unitary(rng, d)
    lam = rng.uniform(0.05, 0.95, size=d)
    return hermitian((U * lam) @ U.conj().T)


def density(rng, d):
    G = gaussian(rng, d)
    P = G @ G.conj().T
    return hermitian(P / np.trace(P).real)


def operator(kind, rng, d):
    if kind == "bounded":
        return gaussian(rng, d)
    if kind == "self-adjoint":
        return hermitian(gaussian(rng, d))
    if kind == "positive":
        G = gaussian(rng, d)
        P = G @ G.conj().T
        return hermitian(P / np.max(np.abs(P)))
    if kind == "effect":
        return effect(rng, d)
    return density(rng, d)


# --- oracle helpers (NumPy only) -------------------------------------------------


def _residual(A, B) -> float:
    return float(np.max(np.abs(np.asarray(A) - np.asarray(B))))


def _spectrum(A):
    return np.linalg.eigvalsh(hermitian(np.asarray(A)))


def _membership(kind, A) -> str | None:
    """Why A is not in ``kind`` at TOL (NumPy eigh), or None."""
    A = np.asarray(A)
    if kind == "bounded":
        return None
    if _residual(A, A.conj().T) > TOL:
        return "not self-adjoint"
    lam = _spectrum(A)
    if kind in ("positive", "effect", "density") and lam[0] < -TOL:
        return f"eigenvalue {lam[0]:.3e} below zero"
    if kind == "effect" and lam[-1] > 1.0 + TOL:
        return f"eigenvalue {lam[-1]:.6f} above one"
    if kind == "density" and abs(np.trace(A) - 1.0) > TOL:
        return "trace is not one"
    return None


def _expect_close(label, got, want, tol=TOL) -> str | None:
    r = _residual(got, want)
    return None if r <= tol else f"{label}: residual {r:.3e} > {tol:g}"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _digest_arrays(*arrays) -> bytes:
    h = hashlib.sha256()
    for A in arrays:
        h.update(np.ascontiguousarray(A, dtype=np.complex128).tobytes())
    return h.digest()


# --- workloads ---------------------------------------------------------------------


class Workload:
    """Base: a cycle of classes, a pool of inputs per class, op and oracle."""

    name = ""
    classes: tuple = ()
    #: peak memory of interest is that of child processes (cli-cold)
    rss_of_children = False

    def __init__(self, hd, seed: int, work_dir: Path, pool: int = POOL):
        self.hd = hd
        self.seed = seed
        self.pool = pool
        self.work_dir = work_dir
        self.inputs = [
            [self.make_input(c, cls, j) for j in range(pool)]
            for c, cls in enumerate(self.classes)
        ]

    def _case(self, i):
        c = i % len(self.classes)
        return self.classes[c], self.inputs[c][(i // len(self.classes)) % self.pool]

    def make_input(self, c, cls, j):
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out) -> str | None:
        raise NotImplementedError

    def digest(self, out) -> bytes:
        raise NotImplementedError


class DualityRoundtrip(Workload):
    name = "duality-roundtrip"
    classes = tuple((kind, d) for d in (2, 3, 4, 6, 8) for kind in KINDS)

    def make_input(self, c, cls, j):
        kind, d = cls
        return operator(kind, _rng(self.seed, c, j), d)

    def op(self, i):
        (kind, d), A = self._case(i)
        hd = self.hd
        K = getattr(hd.operators.OperatorKind, _KIND_ENUM[kind])
        f = hd.duality.hs_forward(K, A)
        A2 = hd.duality.hs_inverse(K, f)
        return A2, self._free_roundtrip(kind, d, A)

    def _free_roundtrip(self, kind, d, A):
        fr = self.hd.free
        if kind == "bounded":
            pair = fr.c_iso_b_sa(A)
            return {"re": pair.re, "im": pair.im, "back": fr.c_iso_sa_b(pair)}
        if kind == "self-adjoint":
            diff = fr.r_iso_sa_pos(A)
            return {"pos": diff.pos, "neg": diff.neg, "back": fr.r_iso_pos_sa(diff)}
        u = fr.s_iso_pos_dm(A)
        P = fr.s_iso_dm_pos(u, d)
        if kind != "effect":
            return {"weight": u.weight, "point": u.point, "back": P}
        # effect: the whole chain, weighted density -> difference -> pair
        diff = fr.r_iso_sa_pos(P)
        S = fr.r_iso_pos_sa(diff)
        pair = fr.c_iso_b_sa(S)
        return {
            "weight": u.weight,
            "point": u.point,
            "pos": diff.pos,
            "neg": diff.neg,
            "re": pair.re,
            "im": pair.im,
            "back": fr.c_iso_sa_b(pair),
        }

    def check(self, i, out):
        (kind, d), A = self._case(i)
        A2, iso = out
        reason = _first(
            _expect_close("hs_inverse(hs_forward(A))", A2, A),
            _membership(kind, A2),
            _expect_close("free round trip", iso["back"], A),
        )
        if reason is not None:
            return reason
        if "re" in iso:
            reason = _first(
                _membership("self-adjoint", iso["re"]),
                _membership("self-adjoint", iso["im"]),
                _expect_close("re + i im", iso["re"] + 1j * iso["im"], iso["back"]),
            )
        if reason is None and "pos" in iso:
            reason = _first(
                _membership("positive", iso["pos"]),
                _membership("positive", iso["neg"]),
                _expect_close("pos - neg", iso["pos"] - iso["neg"], hermitian(iso["back"])),
                _expect_close("pos @ neg", iso["pos"] @ iso["neg"], 0.0, tol=1e-8),
            )
        if reason is None and "weight" in iso:
            reason = _first(
                _membership("density", iso["point"]),
                _expect_close("weight", iso["weight"], np.trace(A).real),
            )
        return reason

    def digest(self, out):
        A2, iso = out
        return _digest_arrays(A2, *(np.asarray(v) for v in iso.values()))


class WpChannels(Workload):
    name = "wp-channels"
    classes = tuple(
        (ctype, d)
        for d in (2, 3, 4, 6)
        for ctype in ("unitary", "mixture", "super-to_super", "super-compose")
    )

    def make_input(self, c, cls, j):
        ctype, d = cls
        rng = _rng(self.seed, c, j)
        k = 1 if ctype == "unitary" else int(rng.integers(2, 5))
        units = [unitary(rng, d) for _ in range(k)]
        ints = [int(x) for x in rng.integers(1, 10, size=k)]
        weights = [Fraction(x, sum(ints)) for x in ints]
        V = unitary(rng, d) if ctype == "super-compose" else np.eye(d)
        return {
            "units": units,
            "weights": weights,
            "outer": V,
            "effect": effect(rng, d),
            "densities": [density(rng, d) for _ in range(3)],
            "validation_seed": int(rng.integers(0, 2**31)),
        }

    def op(self, i):
        (ctype, d), x = self._case(i)
        wpm = self.hd.wp
        parts = [wpm.unitary_channel(U) for U in x["units"]]
        if ctype == "unitary":
            ch = parts[0]
        else:
            ch = wpm.mixture_channel(x["weights"], parts)
            if ctype == "super-to_super":
                ch = wpm.super_channel(d, d, wpm.to_super(ch), seed=x["validation_seed"])
            elif ctype == "super-compose":
                M = wpm.compose(wpm.unitary_channel(x["outer"]), ch).matrix
                ch = wpm.super_channel(d, d, M, seed=x["validation_seed"])
        W = wpm.wp(ch, x["effect"])
        images = [wpm.apply_channel(ch, rho) for rho in x["densities"]]
        return W, images

    def check(self, i, out):
        _, x = self._case(i)
        W, images = out
        # Closed forms: the channel is rho -> sum_i w_i (V U_i) rho (V U_i)^dagger.
        terms = [(float(w), x["outer"] @ U) for w, U in zip(x["weights"], x["units"])]
        E = x["effect"]
        want_W = sum(w * U.conj().T @ E @ U for w, U in terms)
        reason = _first(_expect_close("wp closed form", W, want_W), _membership("effect", W))
        for rho, img in zip(x["densities"], images):
            want = sum(w * U @ rho @ U.conj().T for w, U in terms)
            reason = reason or _expect_close("apply_channel closed form", img, want)
        return reason

    def digest(self, out):
        W, images = out
        return _digest_arrays(W, *images)


_BASE_LAWS = ("zero-unit", "commutativity", "associativity")


class LawsExact(Workload):
    name = "laws-exact"
    classes = (
        ("monad", 0),
        ("interval", 8),
        ("powerset", 3),
        ("powerset", 4),
        ("powerset", 5),
        ("projections", 2),
        ("projections", 3),
        ("projections", 4),
    )
    SAMPLES = 200

    def make_input(self, c, cls, j):
        return int(_rng(self.seed, c, j).integers(0, 2**31))

    def op(self, i):
        (family, n), suite_seed = self._case(i)
        hd = self.hd
        if family == "monad":
            return hd.algebra.monad_law_suite()
        if family == "interval":
            inst = hd.effect.make_unit_interval(n)
            report = hd.effect.law_suite(inst, seed=suite_seed)
        elif family == "powerset":
            report = hd.effect.law_suite(hd.effect.make_powerset(n), seed=suite_seed)
        else:
            inst = hd.effect.make_projections(n)
            report = hd.effect.law_suite(inst, samples=self.SAMPLES, seed=suite_seed)
        return [(e.law, e.passed, e.checked, e.counterexample) for e in report.entries]

    def check(self, i, out):
        (family, n), _ = self._case(i)
        if family == "monad":
            if out["violations"]:
                return f"monad law violations: {out['violations'][:1]}"
            return None if out["checked"] > 0 else "monad suite checked nothing"
        for law, passed, _, counterexample in out:
            if not passed:
                return f"{law} failed: {counterexample}"
        checked = {law: count for law, _, count, _ in out}
        if family == "interval":
            size = len({Fraction(p, q) for q in range(1, n + 1) for p in range(q + 1)})
            want = (size, size**2, size**3)
        elif family == "powerset":
            want = (2**n, 4**n, 8**n)
        else:
            want = (self.SAMPLES + 2, self.SAMPLES, self.SAMPLES)
        got = tuple(checked.get(law) for law in _BASE_LAWS)
        return None if got == want else f"checked counts {got} != {want}"

    def digest(self, out):
        return hashlib.sha256(repr(out).encode()).digest()


class CliCold(Workload):
    """Each op is one fresh ``python3 -m hsdual`` process on set-up files."""

    name = "cli-cold"
    classes = (
        "classify",
        "wp-unitary",
        "wp-mixture",
        "wp-super",
        "duality-roundtrip",
        "free-iso",
        "laws-effects",
        "laws-monad",
    )
    rss_of_children = True
    #: traced runs replace ``-m hsdual`` by the tracing shim
    shim = None

    def __init__(self, hd, seed, work_dir):
        self.files = work_dir / "cli" / f"seed-{seed}"
        self.files.mkdir(parents=True, exist_ok=True)
        # One invocation per class, repeated every cycle: each timed op has an
        # earlier identical invocation (its warm-up op) to compare stdout with.
        super().__init__(hd, seed, work_dir, pool=1)
        #: stdout of the first run of each invocation, for the byte-identity check
        self.first_stdout = {}

    def _write(self, name, obj) -> str:
        path = self.files / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    @staticmethod
    def _matrix_json(A):
        A = np.asarray(A)
        return {"dim": A.shape[0], "data": [[float(z.real), float(z.imag)] for z in A.reshape(-1)]}

    def make_input(self, c, cls, j):
        rng = _rng(self.seed, c, j)
        tag = f"{cls}-{j}"
        flags = ["--seed", str(int(rng.integers(0, 2**31)))]
        x = {"expect": {}}
        if cls == "classify":
            A = density(rng, 4)
            x["argv"] = ["classify", "--matrix", self._write(f"{tag}.json", self._matrix_json(A))]
            x["expect"]["matrix"] = A
        elif cls.startswith("wp-"):
            d = 3
            k = 1 if cls == "wp-unitary" else 3
            units = [unitary(rng, d) for _ in range(k)]
            ints = [int(v) for v in rng.integers(1, 10, size=k)]
            weights = [Fraction(v, sum(ints)) for v in ints]
            if cls == "wp-unitary":
                channel = {"type": "unitary", "matrix": self._matrix_json(units[0])}
            elif cls == "wp-mixture":
                channel = {
                    "type": "mixture",
                    "weights": [str(w) for w in weights],
                    "parts": [{"type": "unitary", "matrix": self._matrix_json(U)} for U in units],
                }
            else:
                M = sum(float(w) * np.kron(U, U.conj()) for w, U in zip(weights, units))
                channel = {
                    "type": "super",
                    "dim_in": d,
                    "dim_out": d,
                    "matrix": {
                        "rows": d * d,
                        "cols": d * d,
                        "data": [[float(z.real), float(z.imag)] for z in M.reshape(-1)],
                    },
                }
            E = effect(rng, d)
            x["argv"] = [
                "wp",
                "--channel",
                self._write(f"{tag}-channel.json", channel),
                "--effect",
                self._write(f"{tag}-effect.json", self._matrix_json(E)),
                "--check-duality",
                "3",
            ]
            x["expect"]["wp"] = sum(float(w) * U.conj().T @ E @ U for w, U in zip(weights, units))
        elif cls == "duality-roundtrip":
            x["argv"] = ["duality-roundtrip", "--kind", "density", "--dim", "4", "--seeds", "2"]
        elif cls == "free-iso":
            x["argv"] = ["free-iso", "--which", "chain", "--dim", "3", "--seeds", "4"]
        elif cls == "laws-effects":
            x["argv"] = ["laws", "--instance", "effects", "--dim", "2", "--samples", "40"]
        else:
            x["argv"] = ["laws", "--suite", "monad"]
        x["argv"] = x["argv"] + flags
        return x

    def op(self, i):
        cls, x = self._case(i)
        if self.shim is None:
            cmd = [sys.executable, "-m", "hsdual", *x["argv"]]
        else:
            cmd = [sys.executable, str(self.shim), str(self.trace_path(i)), *x["argv"]]
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def trace_path(self, i) -> Path:
        return self.work_dir / "spans" / f"cli-op{i}.npz"

    def check(self, i, out):
        cls, x = self._case(i)
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.decode(errors='replace').strip()[:200]}"
        key = tuple(x["argv"])
        first = self.first_stdout.setdefault(key, stdout)
        if stdout != first:
            return "stdout differs from an earlier identical invocation"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if cls == "classify":
            return self._check_classify(report, x["expect"]["matrix"])
        if report.get("pass") is not True:
            return f"report does not pass: {stdout[:200]!r}"
        if cls.startswith("wp-"):
            data = report["wp"]["data"]
            dim = report["wp"]["dim"]
            W = np.array([complex(re, im) for re, im in data]).reshape(dim, dim)
            return _expect_close("wp closed form", W, x["expect"]["wp"])
        if cls == "laws-effects" and not all(e["pass"] for e in report["laws"]):
            return "an effect law failed"
        if cls == "laws-monad" and report["violations"]:
            return "monad law violations"
        if "max_residual" in report and report["max_residual"] > TOL:
            return f"max_residual {report['max_residual']:.3e} > {TOL:g}"
        return None

    @staticmethod
    def _check_classify(report, A):
        lam = _spectrum(A)[::-1]
        positive = lam[-1] >= -TOL
        want = ["Bounded", "SelfAdjoint"]
        if positive:
            want.append("Positive")
            if lam[0] <= 1.0 + TOL:
                want.append("Effect")
        if _residual(A @ A, A) <= TOL:
            want.append("Projection")
        if positive and abs(np.trace(A) - 1.0) <= TOL:
            want.append("Density")
        if report["kinds"] != want:
            return f"kinds {report['kinds']} != {want}"
        return _expect_close("eigenvalues", np.array(report["eigenvalues"]), lam)

    def digest(self, out):
        code, stdout, _ = out
        return hashlib.sha256(bytes([code & 0xFF]) + stdout).digest()


WORKLOADS = {w.name: w for w in (DualityRoundtrip, WpChannels, LawsExact, CliCold)}
