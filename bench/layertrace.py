"""Layer spans recorded from outside the program.

`install` replaces the public functions of each module of the package by
timing wrappers, in every module namespace that holds them, so a call made
through `from .x import f` is caught too.  A span's self time is its
duration minus the time of the spans it encloses.  Spans are aggregated in
memory per (layer, enclosing layer) and written out when the run ends;
nothing inside the package is edited.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


def stencil_flops(n: int, m: int, acc: int) -> int:
    """Multiply-adds of one m-th derivative of n samples, counted from the
    widths of the centred and one-sided stencils the operator documents:
    half-width max((m + acc - 1)//2 + [m even], (m + 1)//2 + acc//2), and
    one-sided length m + acc at the `half` rows of each edge."""
    if m == 0:
        return 0
    half = max((m + acc - 1) // 2 + (1 if m % 2 == 0 else 0),
               (m + 1) // 2 + acc // 2)
    return 2 * ((n - 2 * half) * (2 * half + 1) + 2 * half * (m + acc))


class Tracer:
    """Aggregated span tree plus named counters."""

    def __init__(self):
        self.self_s = collections.defaultdict(float)    # layer -> seconds
        self.calls = collections.Counter()              # layer -> calls
        self.counts = collections.Counter()             # counter -> total
        self.edges = collections.defaultdict(lambda: [0.0, 0])
        self.wrapped_calls = 0
        self.top_s = 0.0                                # outermost spans
        self._stack: list[list] = []                    # [name, child_s]

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts), "top_s": self.top_s,
                "wrapped_calls": self.wrapped_calls}

    def span(self, name: str, fn, count=None):
        """Wrap fn in a span; `count(result, args, kwargs)` adds counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack = self._stack
            parent = stack[-1][0] if stack else "op"
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
                own = dt - frame[1]
                self.self_s[name] += own
                self.calls[name] += 1
                edge = self.edges[f"{name} <- {parent}"]
                edge[0] += own
                edge[1] += 1
                self.wrapped_calls += 1
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return wrapper

    def counter(self, fn, count):
        """Wrap fn with counters only (no span of its own)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, result, args, kwargs)
            self.wrapped_calls += 1
            return result

        return wrapper


def _replace_everywhere(original, wrapper, package: str) -> int:
    """Point every module-level name in the package that holds `original`
    at `wrapper`; returns how many names were replaced."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                n += 1
    if n == 0:
        raise RuntimeError(f"no module of {package} holds {original!r}")
    return n


def _count_derivative(counts, result, args, kwargs):
    f, m = args[0], args[2]
    acc = args[3] if len(args) > 3 else kwargs.get("acc", 4)
    counts["fd.derivative.points"] += len(f)
    counts["fd.derivative.flops"] += stencil_flops(len(f), m, acc)


def _count_nfev(counts, result, args, kwargs):
    counts["profile_solver.solve_ivp.nfev"] += int(result.nfev)


def _count_bytes(counts, result, args, kwargs):
    counts["cli.artifact_bytes"] += len(args[1].encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap the layers named in the benchmark README."""
    from nls_implosion import (_fd, cli, dynamics_lab, phase_portrait,
                               profile_solver, repulsivity_verifier,
                               selfsimilar_fields)

    pkg = "nls_implosion"

    def wrap(name, fn, count=None):
        _replace_everywhere(fn, tracer.span(name, fn, count), pkg)

    wrap("fd.derivative", _fd.derivative, _count_derivative)
    wrap("profile_solver.sonic_series", profile_solver.sonic_series)
    wrap("profile_solver.outgoing_anchor", profile_solver.outgoing_anchor)
    wrap("profile_solver.solve_profile", profile_solver.solve_profile)
    wrap("profile_solver.residual_profile", profile_solver.residual_profile)
    wrap("profile_solver.to_physical", profile_solver.to_physical)
    # scipy's integrator, wrapped at the name profile_solver calls it by
    profile_solver.solve_ivp = tracer.span(
        "profile_solver.solve_ivp", profile_solver.solve_ivp, _count_nfev)
    table_cls = profile_solver.ProfileTable
    table_cls.to_csv = tracer.span("profile_solver.serialize",
                                   table_cls.to_csv)
    table_cls.to_json = tracer.span("profile_solver.serialize",
                                    table_cls.to_json)
    wrap("repulsivity_verifier.verify_all", repulsivity_verifier.verify_all)
    wrap("phase_portrait.auxiliary_signs", phase_portrait.auxiliary_signs)
    wrap("cli.main", cli.main)
    cli._write_atomic = tracer.counter(cli._write_atomic, _count_bytes)
    wrap("dynamics_lab.simulate", dynamics_lab.simulate)
    wrap("dynamics_lab.step", dynamics_lab.step)
    for fn in (dynamics_lab.residual_stationary, dynamics_lab.energy_low,
               dynamics_lab.energy_w, dynamics_lab.energy_high):
        wrap("dynamics_lab.energies", fn)
    wrap("dynamics_lab.profile_fieldset", dynamics_lab.profile_fieldset)
    wrap("dynamics_lab.dissipativity_probe", dynamics_lab.dissipativity_probe)
    wrap("dynamics_lab.blowup_exponent", dynamics_lab.blowup_exponent)
    fieldset = selfsimilar_fields.FieldSet
    fieldset.from_Psi_S = classmethod(tracer.span(
        "selfsimilar_fields.FieldSet", fieldset.from_Psi_S.__func__))
    wrap("selfsimilar_fields.radial_laplacian",
         selfsimilar_fields.radial_laplacian)
    wrap("selfsimilar_fields.even_d", selfsimilar_fields._even_d1)
    wrap("selfsimilar_fields.even_d", selfsimilar_fields._even_d2)
    wrap("selfsimilar_fields.damped_profile",
         selfsimilar_fields.damped_profile)
    wrap("selfsimilar_fields.error_terms", selfsimilar_fields.error_terms)
