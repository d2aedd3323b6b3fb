"""Brute-force reference implementations the fast paths are checked against.

Everything here is deliberately naive (double loops, BFS, full-raster passes)
and shares no code with the package.
"""

import math
import re
from decimal import ROUND_HALF_UP, Decimal

import numpy as np


def gray_value(r: int, g: int, b: int) -> int:
    """BT.601 luma via exact decimal arithmetic, halves rounded up."""
    v = (Decimal(299) * r + Decimal(587) * g + Decimal(114) * b) / Decimal(1000)
    return int(v.quantize(Decimal(1), rounding=ROUND_HALF_UP))


def threshold_pixels(gray: np.ndarray, t1: int, t2: int) -> np.ndarray:
    h, w = gray.shape
    out = np.zeros((h, w), dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            if t1 < gray[i, j] <= t2:
                out[i, j] = 1
    return out


def count_area(binary: np.ndarray) -> int:
    total = 0
    for i in range(binary.shape[0]):
        for j in range(binary.shape[1]):
            total += int(binary[i, j])
    return total


def flood_fill_labels(binary: np.ndarray):
    """8-connected components via BFS, labeled 1..N in raster order."""
    h, w = binary.shape
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for r in range(h):
        for c in range(w):
            if binary[r, c] and not labels[r, c]:
                count += 1
                stack = [(r, c)]
                labels[r, c] = count
                while stack:
                    i, j = stack.pop()
                    for di in (-1, 0, 1):
                        for dj in (-1, 0, 1):
                            ni, nj = i + di, j + dj
                            if (0 <= ni < h and 0 <= nj < w
                                    and binary[ni, nj] and not labels[ni, nj]):
                                labels[ni, nj] = count
                                stack.append((ni, nj))
    return labels, count


def largest_region_mask(binary: np.ndarray, min_area: int):
    """Mask of the largest flood-filled region of at least min_area pixels, or None.

    Regions below min_area are dropped first; among the rest the largest wins,
    ties going to the region met first in raster order.
    """
    labels, count = flood_fill_labels(binary)
    best, best_size = 0, 0
    for k in range(1, count + 1):
        size = int((labels == k).sum())
        if size >= min_area and size > best_size:
            best, best_size = k, size
    if best == 0:
        return None
    return (labels == best).astype(np.uint8)


def column_centroid(binary: np.ndarray, row0, col0, row1, col1):
    """Mean column index of set pixels in an inclusive rectangle, or None."""
    total = 0
    count = 0
    for i in range(row0, row1 + 1):
        for j in range(col0, col1 + 1):
            if binary[i, j]:
                total += j
                count += 1
    if count == 0:
        return None
    return total / count


def quadrant_count(binary: np.ndarray, row0, col0, row1, col1) -> int:
    total = 0
    for i in range(row0, row1 + 1):
        for j in range(col0, col1 + 1):
            total += int(binary[i, j])
    return total


def band_feature_rows(binary: np.ndarray):
    """The 5 bands' (x1..x6) of a 0/1 mask, bottom band first, from loops alone.

    Bands are height // 5 rows counted from the bottom, the top band taking
    the remainder; a band's upper half is its first rows // 2 rows and its
    left quadrants the first width // 2 columns.  Coverage is the quadrant's
    set fraction and a half's location its column centroid over width - 1
    (0.55 when empty), both mapped onto [0.1, 1.0].
    """
    h, w = binary.shape
    base = h // 5
    mid_col = w // 2
    rows = []
    for k in range(1, 6):
        bottom = h - 1 - (k - 1) * base
        top = 0 if k == 5 else bottom - base + 1
        split = top + (bottom - top + 1) // 2
        quadrants = [(top, 0, split - 1, mid_col - 1), (top, mid_col, split - 1, w - 1),
                     (split, 0, bottom, mid_col - 1), (split, mid_col, bottom, w - 1)]
        vector = []
        for r0, c0, r1, c1 in quadrants:
            pixels = (r1 - r0 + 1) * (c1 - c0 + 1)
            vector.append(0.1 + 0.9 * (quadrant_count(binary, r0, c0, r1, c1) / pixels))
        for r0, r1 in ((top, split - 1), (split, bottom)):
            c = column_centroid(binary, r0, 0, r1, w - 1)
            vector.append(0.55 if c is None else 0.1 + 0.9 * (c / (w - 1)))
        rows.append(tuple(vector))
    return rows


def _min_dist2_to_polyline(gx, gy, waypoints):
    best = np.full(gx.shape, np.inf)
    for (px, py), (qx, qy) in zip(waypoints, waypoints[1:]):
        wx, wy = qx - px, qy - py
        length2 = wx * wx + wy * wy
        s = np.clip(((gx - px) * wx + (gy - py) * wy) / length2, 0.0, 1.0)
        dx = gx - (px + s * wx)
        dy = gy - (py + s * wy)
        np.minimum(best, dx * dx + dy * dy, out=best)
    return best


def camera_geometry(auv, cam):
    """Camera origin, its right, up and forward unit vectors, focal length (px), image center."""
    rad = math.radians(auv.heading - 90.0)
    hx, hy = math.sin(rad), math.cos(rad)
    tilt = math.radians(cam.tilt_deg)
    right = np.array([hy, -hx, 0.0])
    forward = np.array([hx * math.cos(tilt), hy * math.cos(tilt), -math.sin(tilt)])
    up = np.array([hx * math.sin(tilt), hy * math.sin(tilt), math.cos(tilt)])
    origin = np.array([auv.x, auv.y, cam.height_cm])
    f = (cam.image_width / 2.0) / math.tan(math.radians(cam.fov_deg) / 2.0)
    center = (cam.image_width - 1) / 2.0, (cam.image_height - 1) / 2.0
    return origin, right, up, forward, f, center


def project_point(point, auv, cam):
    """Pixel coordinates of a seabed point, or None if behind the camera."""
    origin, right, up, forward, f, (cx, cy) = camera_geometry(auv, cam)
    v = np.array([point[0], point[1], 0.0]) - origin
    depth = float(v @ forward)
    if depth <= 1e-9:
        return None
    return cx + f * float(v @ right) / depth, cy - f * float(v @ up) / depth


def render_reference(world, auv, cam, frame: int = 0) -> np.ndarray:
    """Full-raster seabed render: every pixel's ray against every segment.

    Returns the (height, width) uint8 pixels.  The camera basis, ray grid,
    distance pass and noise draws follow the same float64 operation order as
    sim.render_view, so the two must agree byte for byte.
    """
    origin, right, up, forward, f, (cx, cy) = camera_geometry(auv, cam)
    h, w = cam.image_height, cam.image_width
    a = (np.arange(w) - cx) / f
    b = (cy - np.arange(h)) / f
    aa, bb = np.meshgrid(a, b)
    dirs = (forward[None, None, :]
            + aa[..., None] * right[None, None, :]
            + bb[..., None] * up[None, None, :])
    dz = dirs[..., 2]
    ground = dz < -1e-12
    t = np.where(ground, -origin[2] / np.where(ground, dz, -1.0), 0.0)
    gx = origin[0] + t * dirs[..., 0]
    gy = origin[1] + t * dirs[..., 1]
    d2 = _min_dist2_to_polyline(gx, gy, world.pipeline)
    pipe = ground & (d2 <= (world.pipe_width / 2.0) ** 2)
    img = np.where(pipe, cam.pipe_intensity, cam.seabed_intensity).astype(np.int64)
    rng = np.random.default_rng((world.seed, frame))
    if cam.noise_amplitude > 0:
        img += rng.integers(-cam.noise_amplitude, cam.noise_amplitude + 1, size=(h, w))
        np.clip(img, 0, 255, out=img)
    if cam.speckle_density > 0:
        salt = rng.random((h, w)) < cam.speckle_density
        img[salt] = cam.pipe_intensity
    return img.astype(np.uint8)


def fire_rules(rb, values) -> list:
    """Per-rule firing strength of a fuzzy rule base, rule by rule.

    Each rule's strength is the minimum of its antecedent memberships, every
    membership graded afresh by calling its function.  Raises ValueError
    naming the first variable, in rule order, that values does not supply.
    """
    alphas = []
    for rule in rb.rules:
        grades = []
        for var, term in rule.antecedents:
            if var not in values:
                raise ValueError(f"no value supplied for variable {var}")
            grades.append(rb.variables[var].terms[term](values[var]))
        alphas.append(min(grades))
    return alphas


def pnm_header_tokens(data: bytes, count: int = 4):
    """The first count netpbm header tokens and the offset of the raster, byte by byte.

    Whitespace separates tokens and a '#' comment runs to the end of its line;
    one whitespace byte must follow the last token.  Raises ValueError with
    "truncated header" or "missing whitespace before raster data".
    """
    tokens = []
    i = 0
    while len(tokens) < count:
        if i >= len(data):
            raise ValueError("truncated header")
        c = data[i:i + 1]
        if c == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if i >= len(data) or not data[i:i + 1].isspace():
        raise ValueError("missing whitespace before raster data")
    return tokens, i + 1


def p6_bytes(pixels) -> bytes:
    """A binary PPM (P6) file holding an (h, w, 3) uint8 array."""
    height, width, _ = pixels.shape
    return b"P6\n%d %d\n255\n" % (width, height) + np.asarray(pixels, np.uint8).tobytes()


def rule_tokens(line: str):
    """(antecedents, consequent) of a rules-DSL rule line read word by word, or None.

    The words must be IF, zero or more `<var> IS <Term>` clauses joined by
    AND, THEN (the first one) and `<var> IS <Term>`.  Names are not checked.
    """
    tokens = line.split()
    if not tokens or tokens[0] != "IF" or "THEN" not in tokens:
        return None
    then_pos = tokens.index("THEN")
    ante_tokens = tokens[1:then_pos]
    cons_tokens = tokens[then_pos + 1:]
    if ante_tokens and len(ante_tokens) % 4 != 3:
        return None
    antecedents = []
    for i in range(0, len(ante_tokens), 4):
        var, kw, term = ante_tokens[i:i + 3]
        if kw != "IS" or (i + 3 < len(ante_tokens) and ante_tokens[i + 3] != "AND"):
            return None
        antecedents.append((var, term))
    if len(cons_tokens) != 3 or cons_tokens[1] != "IS":
        return None
    return tuple(antecedents), (cons_tokens[0], cons_tokens[2])


_TERM_LINE = re.compile(r"^term\.([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)\s*=\s*(.+)$")
_TERM_VALUE = re.compile(r"^(gaussian|pi)\(\s*([^,\s]+)\s*,\s*([^,\s)]+)\s*\)$")


def term_fields(line: str):
    """(var, term, value) of a rules-DSL term line read by two patterns, or None.

    The first pattern reads `term.<var>.<Term> = <value>`; value is then the
    (kind, width, center) text the second reads from it, or None when it
    reads none.  Names and numbers are not checked.
    """
    m = _TERM_LINE.match(line)
    if not m:
        return None
    var, term, value = m.groups()
    vm = _TERM_VALUE.match(value.strip())
    return var, term, vm and vm.groups()
