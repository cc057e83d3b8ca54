"""Independent oracles for the test suite.

The region integrator here never touches the package's transfinite maps: it
recursively subdivides a rectangle, integrates cells away from the curve by
exact rectangle moments, and handles frontier cells by 1D fiber slicing with
bisected crossings of the curve's implicit function (exact antiderivatives in
y, panelled Gauss in x with a square-root substitution at vertical-tangent
abscissae).  Everything is derived from curve.signed_distance alone.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from ipfem.geometry import GeometryError


def monomial_pairs(degmax):
    return [(a, b) for a in range(degmax + 1) for b in range(degmax + 1 - a)]


def _rect_moments(box, pairs):
    x0, y0, x1, y1 = box
    out = []
    for a, b in pairs:
        ix = (x1 ** (a + 1) - x0 ** (a + 1)) / (a + 1)
        iy = (y1 ** (b + 1) - y0 ** (b + 1)) / (b + 1)
        out.append(ix * iy)
    return np.array(out)


def _vertical_tangent_xs(curve):
    if hasattr(curve, "radius"):
        return [curve.center[0] - curve.radius, curve.center[0] + curve.radius]
    if hasattr(curve, "a") and hasattr(curve, "b"):
        return [curve.center[0] - curve.a, curve.center[0] + curve.a]
    return []


def _bisect_fibers(curve, xs, lo, hi, flo_neg, fhi_neg=None):
    """Vectorized bisection for one crossing per fiber inside (lo, hi)."""
    a = lo.copy()
    b = hi.copy()
    fa_neg = flo_neg.copy()
    for _ in range(80):
        m = 0.5 * (a + b)
        fm_neg = np.asarray(curve.signed_distance(xs, m)) < 0.0
        take_left = fa_neg != fm_neg
        b = np.where(take_left, m, b)
        a = np.where(take_left, a, m)
        fa_neg = np.where(take_left, fa_neg, fm_neg)
    return 0.5 * (a + b)


def _fiber_moments(curve, xs, ylo, yhi, side, pairs, nsamp=65):
    """For each x in xs: integrals of y^b over {y: (x, y) on the given side},
    combined into x^a y^b moment rows (len(xs), len(pairs))."""
    m = len(xs)
    ys = np.linspace(ylo, yhi, nsamp)
    d = np.asarray(curve.signed_distance(xs[:, None], ys[None, :]))
    neg = d < 0.0
    flips = neg[:, 1:] != neg[:, :-1]
    nflip = flips.sum(axis=1)
    if np.any(nflip > 2):
        raise ValueError("oracle fiber with more than two crossings")
    first = np.argmax(flips, axis=1)
    last = nsamp - 2 - np.argmax(flips[:, ::-1], axis=1)

    y1 = np.full(m, np.nan)
    y2 = np.full(m, np.nan)
    has1 = nflip >= 1
    if np.any(has1):
        idx = first[has1]
        y1[has1] = _bisect_fibers(
            curve, xs[has1], ys[idx], ys[idx + 1], neg[has1, idx], neg[has1, idx + 1]
        )
    has2 = nflip == 2
    if np.any(has2):
        idx = last[has2]
        y2[has2] = _bisect_fibers(
            curve, xs[has2], ys[idx], ys[idx + 1], neg[has2, idx], neg[has2, idx + 1]
        )

    # fibers can graze the curve between samples (near vertical tangents the
    # two crossings collapse); zoom onto dips of |d| that the grid resolved as
    # sign-constant and recover the crossing pair when it exists
    spacing = (yhi - ylo) / (nsamp - 1)
    suspicious = np.flatnonzero((nflip == 0) & (np.min(np.abs(d), axis=1) < spacing))
    for i in suspicious:
        yc = ys[int(np.argmin(np.abs(d[i])))]
        lo = max(ylo, yc - 2 * spacing)
        hi = min(yhi, yc + 2 * spacing)
        for _ in range(3):  # progressively finer windows
            yz = np.linspace(lo, hi, 257)
            dz = np.asarray(curve.signed_distance(np.full(257, xs[i]), yz))
            negz = dz < 0.0
            flips = np.flatnonzero(negz[1:] != negz[:-1])
            if len(flips) >= 2:
                k1, k2 = flips[0], flips[-1]
                y1[i] = _bisect_fibers(
                    curve,
                    xs[i : i + 1],
                    yz[k1 : k1 + 1],
                    yz[k1 + 1 : k1 + 2],
                    negz[k1 : k1 + 1],
                )[0]
                y2[i] = _bisect_fibers(
                    curve,
                    xs[i : i + 1],
                    yz[k2 : k2 + 1],
                    yz[k2 + 1 : k2 + 2],
                    negz[k2 : k2 + 1],
                )[0]
                has1[i] = True
                has2[i] = True
                break
            k = int(np.argmin(np.abs(dz)))
            w = (hi - lo) / 64
            lo = max(ylo, yz[k] - w)
            hi = min(yhi, yz[k] + w)

    want_neg = side == 1
    rows = np.zeros((m, len(pairs)))
    for i in range(m):
        knots = [ylo]
        if has1[i]:
            knots.append(y1[i])
        if has2[i]:
            knots.append(y2[i])
        knots.append(yhi)
        segs = []
        for a, b in zip(knots[:-1], knots[1:]):
            if b <= a:
                continue
            mid_neg = bool(curve.signed_distance(xs[i], 0.5 * (a + b)) < 0.0)
            if mid_neg == want_neg:
                segs.append((a, b))
        for j, (pa, pb) in enumerate(pairs):
            acc = 0.0
            for a, b in segs:
                acc += (b ** (pb + 1) - a ** (pb + 1)) / (pb + 1)
            rows[i, j] = xs[i] ** pa * acc
    return rows


def _horizontal_edge_crossings(curve, y, x0, x1, nsamp=129):
    """x-values in (x0, x1) where the curve crosses the horizontal line y."""
    xs = np.linspace(x0, x1, nsamp)
    neg = np.asarray(curve.signed_distance(xs, np.full(nsamp, y))) < 0.0
    flip = np.flatnonzero(neg[1:] != neg[:-1])
    out = []
    for k in flip:
        root = _bisect_fibers_x(
            curve,
            np.array([y]),
            np.array([xs[k]]),
            np.array([xs[k + 1]]),
            np.array([neg[k]]),
        )
        out.append(float(root[0]))
    return out


def _bisect_fibers_x(curve, ys, lo, hi, flo_neg):
    a = lo.copy()
    b = hi.copy()
    fa_neg = flo_neg.copy()
    for _ in range(80):
        m = 0.5 * (a + b)
        fm_neg = np.asarray(curve.signed_distance(m, ys)) < 0.0
        take_left = fa_neg != fm_neg
        b = np.where(take_left, m, b)
        a = np.where(take_left, a, m)
        fa_neg = np.where(take_left, fa_neg, fm_neg)
    return 0.5 * (a + b)


def _slice_cell(curve, box, side, pairs, npts=48):
    """Machine-accurate slicing of one (possibly mixed) cell.

    Panels in x are split at vertical-tangent abscissae (square-root behavior,
    handled by substitution) and wherever the curve crosses the cell's
    horizontal edges (fiber-length kinks)."""
    x0, y0, x1, y1 = box
    width = x1 - x0
    breakpts = [t for t in _vertical_tangent_xs(curve) if x0 + 1e-14 < t < x1 - 1e-14]
    for y_edge in (y0, y1):
        breakpts += [
            t
            for t in _horizontal_edge_crossings(curve, y_edge, x0, x1)
            if x0 + 1e-14 < t < x1 - 1e-14
        ]
    tol = 1e-12 * width
    knots = [x0]
    for t in sorted(breakpts):
        if t - knots[-1] > tol:
            knots.append(t)
    if x1 - knots[-1] > tol:
        knots.append(x1)
    else:
        knots[-1] = x1
    gx, gw = leggauss(npts)
    total = np.zeros(len(pairs))
    tangent_set = set(np.round(_vertical_tangent_xs(curve), 14))
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a <= tol:
            continue
        sing_lo = np.round(a, 14) in tangent_set
        sing_hi = np.round(b, 14) in tangent_set
        if sing_lo and not sing_hi:
            # x = a + s^2 (b-a), s in [0,1]: square-root behavior made analytic
            s = 0.5 * (gx + 1.0)
            ws = 0.5 * gw
            xs = a + s**2 * (b - a)
            jac = 2.0 * s * (b - a)
        elif sing_hi and not sing_lo:
            s = 0.5 * (gx + 1.0)
            ws = 0.5 * gw
            xs = b - s**2 * (b - a)
            jac = 2.0 * s * (b - a)
        elif sing_lo and sing_hi:
            half = 0.5 * (a + b)
            total += _slice_cell(curve, (a, y0, half, y1), side, pairs, npts)
            total += _slice_cell(curve, (half, y0, b, y1), side, pairs, npts)
            continue
        else:
            s = 0.5 * (gx + 1.0)
            ws = 0.5 * gw
            xs = a + s * (b - a)
            jac = np.full_like(s, b - a)
        rows = _fiber_moments(curve, xs, y0, y1, side, pairs)
        total += (ws * jac) @ rows
    return total


def oracle_side_monomials(curve, box, side, degmax, depth=1):
    """Integrals of all monomials of total degree <= degmax over the part of
    ``box`` on the given side of the curve.

    Recursive subdivision: cells provably away from the curve use exact
    rectangle moments; frontier cells at the bottom depth are sliced.
    Returns a dict {(a, b): value}.
    """
    pairs = monomial_pairs(degmax)

    def recurse(b, d):
        x0, y0, x1, y1 = b
        gx, gy = np.meshgrid(np.linspace(x0, x1, 5), np.linspace(y0, y1, 5))
        dist = np.asarray(curve.signed_distance(gx, gy))
        diag = float(np.hypot(x1 - x0, y1 - y0))
        if np.all(dist < 0) and np.min(np.abs(dist)) > diag:
            return _rect_moments(b, pairs) if side == 1 else np.zeros(len(pairs))
        if np.all(dist > 0) and np.min(np.abs(dist)) > diag:
            return _rect_moments(b, pairs) if side == 2 else np.zeros(len(pairs))
        if d <= 0:
            return _slice_cell(curve, b, side, pairs)
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        return (
            recurse((x0, y0, xm, ym), d - 1)
            + recurse((xm, y0, x1, ym), d - 1)
            + recurse((x0, ym, xm, y1), d - 1)
            + recurse((xm, ym, x1, y1), d - 1)
        )

    values = recurse(tuple(box), depth)
    return dict(zip(pairs, values))


def brute_force_labels(mesh, curve, per_element=256):
    """Element labels from dense point sampling: 0 cut, 1 pure side 1,
    2 pure side 2 (a side counts as present if any sample point lands on it)."""
    labels = np.empty(mesh.n_elements, dtype=int)
    offs = (np.arange(per_element) + 0.5) / per_element
    for e in range(mesh.n_elements):
        x0, y0, x1, y1 = mesh.element_box(e)
        xs = x0 + offs * (x1 - x0)
        ys = y0 + offs * (y1 - y0)
        d = np.asarray(curve.signed_distance(xs[:, None], ys[None, :]))
        has1 = bool(np.any(d < 0))
        has2 = bool(np.any(d > 0))
        labels[e] = 0 if (has1 and has2) else (1 if has1 else 2)
    return labels


def _scalar_perimeter_coord(box, p, tol):
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    x, y = p
    if abs(y - y0) <= tol:
        return min(max(x - x0, 0.0), w)
    if abs(x - x1) <= tol:
        return w + min(max(y - y0, 0.0), h)
    if abs(y - y1) <= tol:
        return w + h + min(max(x1 - x, 0.0), w)
    if abs(x - x0) <= tol:
        return 2 * w + h + min(max(y1 - y, 0.0), h)
    raise GeometryError(f"point {p} not on the element boundary")


def scalar_boundary_chain(box, p_from, p_to, tol):
    """Element corners passed when walking the boundary of ``box``
    counterclockwise from p_from to p_to, in walk order (endpoints excluded):
    one element at a time, with Python floats."""
    x0, y0, x1, y1 = box
    w, h = x1 - x0, y1 - y0
    perim = 2 * (w + h)
    s_a = _scalar_perimeter_coord(box, p_from, tol)
    s_b = _scalar_perimeter_coord(box, p_to, tol)
    span = (s_b - s_a) % perim
    if span <= tol:
        span = perim if span == 0.0 else span
    corners = [(0.0, (x0, y0)), (w, (x1, y0)), (w + h, (x1, y1)), (2 * w + h, (x0, y1))]
    chain = []
    for s_c, c in corners:
        d = (s_c - s_a) % perim
        if tol < d < span - tol:
            chain.append((d, np.array(c)))
    chain.sort(key=lambda item: item[0])
    return [c for _, c in chain]
