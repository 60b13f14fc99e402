"""Embedded reference tables and fixture experiment points.

Two tables ship with the package: corpus quality scores (diversity Dr and
syntheticity S) for three data pipelines at ten size fractions, and the
observed training runs (model size, token count, losses, average accuracy)
for the same pipelines. Joined on (label, percent) they form the 207-point
dataset the fit and acceptance suites run against.

The tables are integrity-checked: `verify_fixtures` recomputes a digest
over the canonical rendering and compares it with the frozen value.
"""

from __future__ import annotations

import hashlib

from .errors import QTokensError
from .fitting import EXPERIMENTS_CSV_HEADER, ExperimentPoint, experiment_points

# (label, percent, diversity Dr, syntheticity S)
QUALITY_TABLE: tuple[tuple, ...] = (
    ("Random", 10, 0.37750, 0.02699),
    ("Random", 20, 0.37783, 0.02682),
    ("Random", 30, 0.37833, 0.02675),
    ("Random", 40, 0.37853, 0.02705),
    ("Random", 50, 0.38348, 0.02661),
    ("Random", 60, 0.38003, 0.02658),
    ("Random", 70, 0.38618, 0.02656),
    ("Random", 80, 0.42511, 0.02649),
    ("Random", 90, 0.46301, 0.02642),
    ("Random", 100, 0.36370, 0.02635),
    ("Selection", 10, 0.36187, 0.04230),
    ("Selection", 20, 0.36189, 0.04080),
    ("Selection", 30, 0.36186, 0.04102),
    ("Selection", 40, 0.36186, 0.04069),
    ("Selection", 50, 0.36187, 0.04102),
    ("Selection", 60, 0.36188, 0.04089),
    ("Selection", 70, 0.36189, 0.04065),
    ("Selection", 80, 0.36189, 0.04015),
    ("Selection", 90, 0.36190, 0.04003),
    ("Selection", 100, 0.29054, 0.03990),
    ("Selection + Synthesis", 10, 0.28586, 0.13058),
    ("Selection + Synthesis", 20, 0.28585, 0.11919),
    ("Selection + Synthesis", 30, 0.28584, 0.12308),
    ("Selection + Synthesis", 40, 0.28579, 0.12383),
    ("Selection + Synthesis", 50, 0.28580, 0.12489),
    ("Selection + Synthesis", 60, 0.28577, 0.12719),
    ("Selection + Synthesis", 70, 0.28579, 0.13113),
    ("Selection + Synthesis", 80, 0.28581, 0.12656),
    ("Selection + Synthesis", 90, 0.28578, 0.12002),
    ("Selection + Synthesis", 100, 0.28578, 0.11902),
)

# (size_millions, label, percent, n_tokens, train_loss, eval_loss, accuracy_pct)
RESULTS_TABLE: tuple[tuple, ...] = (
    (25, "Random", 10, 1083200970, 1.36, 6.89, 37.87),
    (50, "Random", 10, 1083200970, 3.26, 4.00, 35.30),
    (75, "Random", 10, 1083200970, 2.77, 3.62, 38.93),
    (125, "Random", 10, 1083200970, 2.69, 3.58, 39.31),
    (500, "Random", 10, 1083200970, 1.78, 4.51, 40.47),
    (1500, "Random", 10, 1083200970, 0.25, 11.33, 40.68),
    (25, "Random", 20, 2178049311, 1.42, 5.60, 40.76),
    (50, "Random", 20, 2178049311, 3.28, 3.97, 37.43),
    (75, "Random", 20, 2178049311, 2.81, 3.51, 39.06),
    (125, "Random", 20, 2178049311, 2.70, 3.45, 40.04),
    (350, "Random", 20, 2178049311, 2.35, 3.37, 41.59),
    (500, "Random", 20, 2178049311, 2.18, 3.43, 43.29),
    (1500, "Random", 20, 2178049311, 1.29, 5.10, 42.46),
    (25, "Random", 30, 3301058727, 3.14, 3.82, 38.30),
    (50, "Random", 30, 3301058727, 3.29, 3.99, 37.56),
    (75, "Random", 30, 3301058727, 2.82, 3.50, 39.66),
    (125, "Random", 30, 3301058727, 2.71, 3.38, 40.47),
    (350, "Random", 30, 3301058727, 2.41, 3.23, 42.11),
    (500, "Random", 30, 3301058727, 2.30, 3.21, 43.12),
    (1500, "Random", 30, 3301058727, 1.70, 3.53, 45.33),
    (25, "Random", 40, 4391680343, 3.15, 3.82, 37.88),
    (50, "Random", 40, 4391680343, 3.28, 3.98, 36.27),
    (75, "Random", 40, 4391680343, 2.83, 3.48, 38.96),
    (125, "Random", 40, 4391680343, 2.72, 3.40, 41.05),
    (350, "Random", 40, 4391680343, 2.44, 3.16, 43.36),
    (500, "Random", 40, 4391680343, 2.32, 3.12, 43.50),
    (1500, "Random", 40, 4391680343, 2.01, 3.12, 45.19),
    (25, "Random", 50, 5471561263, 3.15, 3.85, 37.80),
    (50, "Random", 50, 5471561263, 3.28, 3.98, 36.51),
    (75, "Random", 50, 5471561263, 2.91, 3.53, 40.07),
    (125, "Random", 50, 5471561263, 2.73, 3.38, 39.82),
    (350, "Random", 50, 5471561263, 2.46, 3.14, 42.90),
    (500, "Random", 50, 5471561263, 2.36, 3.06, 43.56),
    (1500, "Random", 50, 5471561263, 2.11, 3.02, 46.22),
    (25, "Random", 60, 6599971622, 3.16, 3.84, 37.78),
    (50, "Random", 60, 6599971622, 3.29, 3.98, 35.82),
    (75, "Random", 60, 6599971622, 2.84, 3.49, 39.25),
    (125, "Random", 60, 6599971622, 2.72, 3.34, 40.81),
    (350, "Random", 60, 6599971622, 2.46, 3.10, 43.35),
    (500, "Random", 60, 6599971622, 2.51, 3.10, 43.94),
    (1500, "Random", 60, 6599971622, 2.16, 2.92, 46.82),
    (25, "Random", 70, 7688714499, 3.15, 3.83, 38.24),
    (50, "Random", 70, 7688714499, 3.28, 3.97, 37.20),
    (75, "Random", 70, 7688714499, 2.85, 3.49, 38.70),
    (125, "Random", 70, 7688714499, 2.76, 3.38, 40.35),
    (350, "Random", 70, 7688714499, 2.47, 3.12, 43.69),
    (500, "Random", 70, 7688714499, 2.52, 3.09, 43.50),
    (1500, "Random", 70, 7688714499, 2.19, 2.91, 47.80),
    (25, "Random", 80, 8761608715, 3.14, 3.81, 38.01),
    (50, "Random", 80, 8761608715, 3.29, 3.96, 37.44),
    (75, "Random", 80, 8761608715, 2.85, 3.49, 39.55),
    (125, "Random", 80, 8761608715, 2.74, 3.39, 40.85),
    (350, "Random", 80, 8761608715, 2.48, 3.09, 43.89),
    (500, "Random", 80, 8761608715, 2.40, 3.02, 44.63),
    (1500, "Random", 80, 8761608715, 2.23, 2.87, 47.97),
    (25, "Random", 90, 9882886144, 3.15, 3.85, 37.48),
    (50, "Random", 90, 9882886144, 3.28, 3.98, 37.65),
    (75, "Random", 90, 9882886144, 2.83, 3.46, 39.45),
    (125, "Random", 90, 9882886144, 2.73, 3.34, 40.63),
    (350, "Random", 90, 9882886144, 2.47, 3.08, 43.39),
    (500, "Random", 90, 9882886144, 2.39, 3.01, 44.13),
    (1500, "Random", 90, 9882886144, 2.23, 2.85, 49.16),
    (25, "Random", 100, 10993147242, 3.15, 3.84, 38.27),
    (50, "Random", 100, 10993147242, 3.29, 3.97, 36.44),
    (75, "Random", 100, 10993147242, 2.84, 3.46, 38.73),
    (125, "Random", 100, 10993147242, 2.73, 3.34, 40.85),
    (350, "Random", 100, 10993147242, 2.49, 3.09, 43.81),
    (500, "Random", 100, 10993147242, 2.41, 2.98, 45.09),
    (1500, "Random", 100, 10993147242, 2.15, 2.85, 48.23),
    (25, "Selection", 10, 708363509, 2.67, 4.70, 39.02),
    (50, "Selection", 10, 708363509, 2.45, 4.70, 40.81),
    (75, "Selection", 10, 708363509, 2.29, 4.79, 39.75),
    (125, "Selection", 10, 708363509, 2.12, 5.18, 40.57),
    (350, "Selection", 10, 708363509, 1.37, 7.71, 41.13),
    (500, "Selection", 10, 708363509, 0.95, 10.27, 40.57),
    (1500, "Selection", 10, 708363509, 0.10, 14.46, 41.13),
    (25, "Selection", 20, 1417265043, 2.68, 4.65, 39.20),
    (50, "Selection", 20, 1417265043, 2.48, 4.49, 40.40),
    (75, "Selection", 20, 1417265043, 2.33, 4.35, 41.44),
    (125, "Selection", 20, 1417265043, 2.25, 4.28, 41.71),
    (350, "Selection", 20, 1417265043, 1.81, 4.91, 43.07),
    (500, "Selection", 20, 1417265043, 1.62, 5.80, 43.17),
    (1500, "Selection", 20, 1417265043, 0.35, 11.82, 43.16),
    (25, "Selection", 30, 2127218639, 2.68, 4.65, 39.51),
    (50, "Selection", 30, 2127218639, 2.49, 4.44, 40.82),
    (75, "Selection", 30, 2127218639, 2.35, 4.31, 41.64),
    (125, "Selection", 30, 2127218639, 2.24, 4.23, 42.39),
    (500, "Selection", 30, 2127218639, 1.80, 4.58, 44.37),
    (1500, "Selection", 30, 2127218639, 0.83, 7.70, 43.12),
    (25, "Selection", 40, 2836208025, 2.69, 4.58, 39.39),
    (50, "Selection", 40, 2836208025, 2.51, 4.42, 40.65),
    (75, "Selection", 40, 2836208025, 2.35, 4.25, 40.97),
    (125, "Selection", 40, 2836208025, 2.24, 4.13, 42.15),
    (350, "Selection", 40, 2836208025, 1.96, 4.09, 44.44),
    (500, "Selection", 40, 2836208025, 1.87, 4.11, 45.21),
    (1500, "Selection", 40, 2836208025, 1.21, 5.72, 45.00),
    (25, "Selection", 50, 3544568369, 2.67, 4.57, 38.82),
    (50, "Selection", 50, 3544568369, 2.50, 4.41, 40.89),
    (75, "Selection", 50, 3544568369, 2.37, 4.25, 41.55),
    (125, "Selection", 50, 3544568369, 2.29, 4.13, 42.49),
    (350, "Selection", 50, 3544568369, 2.01, 3.94, 45.30),
    (500, "Selection", 50, 3544568369, 1.90, 3.96, 45.42),
    (1500, "Selection", 50, 3544568369, 1.39, 4.93, 46.25),
    (25, "Selection", 60, 4253350223, 2.66, 4.57, 40.01),
    (50, "Selection", 60, 4253350223, 2.49, 4.42, 41.09),
    (75, "Selection", 60, 4253350223, 2.36, 4.22, 41.41),
    (125, "Selection", 60, 4253350223, 2.28, 4.13, 42.84),
    (350, "Selection", 60, 4253350223, 2.00, 3.93, 44.87),
    (500, "Selection", 60, 4253350223, 1.93, 3.87, 44.92),
    (1500, "Selection", 60, 4253350223, 1.74, 3.84, 47.25),
    (25, "Selection", 70, 4962280568, 2.67, 4.61, 39.34),
    (50, "Selection", 70, 4962280568, 2.49, 4.36, 40.86),
    (75, "Selection", 70, 4962280568, 2.42, 4.24, 42.50),
    (125, "Selection", 70, 4962280568, 2.30, 4.11, 42.17),
    (350, "Selection", 70, 4962280568, 2.01, 3.86, 45.09),
    (500, "Selection", 70, 4962280568, 1.93, 3.81, 45.24),
    (1500, "Selection", 70, 4962280568, 1.72, 3.78, 47.51),
    (25, "Selection", 80, 5670003836, 2.67, 4.60, 39.64),
    (50, "Selection", 80, 5670003836, 2.50, 4.36, 40.55),
    (75, "Selection", 80, 5670003836, 2.37, 4.19, 41.86),
    (125, "Selection", 80, 5670003836, 2.27, 4.11, 43.11),
    (350, "Selection", 80, 5670003836, 2.02, 3.86, 44.84),
    (500, "Selection", 80, 5670003836, 1.95, 3.79, 45.46),
    (1500, "Selection", 80, 5670003836, 1.65, 3.87, 47.66),
    (25, "Selection", 90, 6378582091, 2.68, 4.60, 39.57),
    (50, "Selection", 90, 6378582091, 2.50, 4.38, 40.62),
    (75, "Selection", 90, 6378582091, 2.35, 4.18, 41.34),
    (125, "Selection", 90, 6378582091, 2.30, 4.12, 42.89),
    (350, "Selection", 90, 6378582091, 2.02, 3.84, 44.78),
    (500, "Selection", 90, 6378582091, 1.97, 3.75, 46.08),
    (1500, "Selection", 90, 6378582091, 1.81, 3.62, 49.25),
    (25, "Selection", 100, 7087328618, 2.68, 4.60, 39.49),
    (50, "Selection", 100, 7087328618, 2.50, 4.38, 41.10),
    (75, "Selection", 100, 7087328618, 2.36, 4.22, 41.86),
    (125, "Selection", 100, 7087328618, 2.27, 4.08, 42.88),
    (350, "Selection", 100, 7087328618, 2.02, 3.80, 45.61),
    (500, "Selection", 100, 7087328618, 1.96, 3.75, 46.51),
    (1500, "Selection", 100, 7087328618, 1.68, 3.74, 48.82),
    (25, "Selection + Synthesis", 10, 250378189, 1.36, 6.89, 37.87),
    (50, "Selection + Synthesis", 10, 250378189, 1.49, 6.15, 38.25),
    (75, "Selection + Synthesis", 10, 250378189, 0.85, 12.24, 38.96),
    (125, "Selection + Synthesis", 10, 250378189, 0.49, 15.56, 38.55),
    (350, "Selection + Synthesis", 10, 250378189, 0.05, 18.64, 39.86),
    (500, "Selection + Synthesis", 10, 250378189, 0.03, 17.01, 38.89),
    (1500, "Selection + Synthesis", 10, 250378189, 0.02, 13.44, 40.32),
    (25, "Selection + Synthesis", 20, 500768330, 1.42, 5.60, 40.76),
    (50, "Selection + Synthesis", 20, 500768330, 1.52, 5.51, 37.67),
    (75, "Selection + Synthesis", 20, 500768330, 1.14, 7.13, 40.78),
    (125, "Selection + Synthesis", 20, 500768330, 0.94, 8.89, 40.08),
    (350, "Selection + Synthesis", 20, 500768330, 0.20, 16.41, 40.53),
    (500, "Selection + Synthesis", 20, 500768330, 0.08, 17.22, 40.58),
    (1500, "Selection + Synthesis", 20, 500768330, 0.03, 14.28, 41.80),
    (25, "Selection + Synthesis", 30, 751577046, 1.45, 5.23, 39.44),
    (50, "Selection + Synthesis", 30, 751577046, 1.54, 5.36, 38.48),
    (75, "Selection + Synthesis", 30, 751577046, 1.21, 5.92, 41.67),
    (125, "Selection + Synthesis", 30, 751577046, 1.08, 6.74, 41.88),
    (350, "Selection + Synthesis", 30, 751577046, 0.49, 11.22, 41.61),
    (500, "Selection + Synthesis", 30, 751577046, 0.26, 14.23, 41.97),
    (1500, "Selection + Synthesis", 30, 751577046, 0.04, 14.48, 42.49),
    (25, "Selection + Synthesis", 40, 1002469726, 1.44, 5.14, 39.81),
    (50, "Selection + Synthesis", 40, 1002469726, 1.58, 5.25, 38.54),
    (75, "Selection + Synthesis", 40, 1002469726, 1.23, 5.23, 41.39),
    (125, "Selection + Synthesis", 40, 1002469726, 1.13, 5.88, 41.33),
    (350, "Selection + Synthesis", 40, 1002469726, 0.70, 9.07, 42.04),
    (500, "Selection + Synthesis", 40, 1002469726, 0.48, 10.96, 43.47),
    (1500, "Selection + Synthesis", 40, 1002469726, 0.07, 13.62, 43.42),
    (25, "Selection + Synthesis", 50, 1253583976, 1.45, 4.95, 39.38),
    (50, "Selection + Synthesis", 50, 1253583976, 1.54, 5.23, 38.74),
    (75, "Selection + Synthesis", 50, 1253583976, 1.25, 4.96, 42.43),
    (125, "Selection + Synthesis", 50, 1253583976, 1.17, 5.29, 42.77),
    (350, "Selection + Synthesis", 50, 1253583976, 0.82, 7.52, 41.65),
    (500, "Selection + Synthesis", 50, 1253583976, 0.64, 9.17, 43.37),
    (1500, "Selection + Synthesis", 50, 1253583976, 0.15, 12.36, 43.18),
    (25, "Selection + Synthesis", 60, 1504223685, 1.45, 5.01, 39.68),
    (50, "Selection + Synthesis", 60, 1504223685, 1.54, 5.11, 37.69),
    (75, "Selection + Synthesis", 60, 1504223685, 1.26, 4.93, 42.72),
    (125, "Selection + Synthesis", 60, 1504223685, 1.18, 5.00, 43.10),
    (350, "Selection + Synthesis", 60, 1504223685, 0.90, 6.43, 41.92),
    (500, "Selection + Synthesis", 60, 1504223685, 0.75, 7.65, 42.99),
    (1500, "Selection + Synthesis", 60, 1504223685, 0.21, 11.04, 44.03),
    (25, "Selection + Synthesis", 70, 1754577326, 1.46, 4.99, 40.42),
    (50, "Selection + Synthesis", 70, 1754577326, 1.55, 5.16, 37.51),
    (75, "Selection + Synthesis", 70, 1754577326, 1.27, 4.81, 42.51),
    (125, "Selection + Synthesis", 70, 1754577326, 1.20, 4.89, 43.28),
    (350, "Selection + Synthesis", 70, 1754577326, 0.95, 6.18, 43.47),
    (500, "Selection + Synthesis", 70, 1754577326, 0.82, 6.79, 43.52),
    (1500, "Selection + Synthesis", 70, 1754577326, 0.19, 12.85, 43.32),
    (25, "Selection + Synthesis", 80, 2004994693, 1.46, 5.03, 40.48),
    (50, "Selection + Synthesis", 80, 2004994693, 1.57, 5.13, 38.29),
    (75, "Selection + Synthesis", 80, 2004994693, 1.27, 4.70, 42.92),
    (125, "Selection + Synthesis", 80, 2004994693, 1.21, 4.77, 43.26),
    (350, "Selection + Synthesis", 80, 2004994693, 0.98, 6.05, 44.84),
    (500, "Selection + Synthesis", 80, 2004994693, 0.87, 6.48, 43.77),
    (1500, "Selection + Synthesis", 80, 2004994693, 0.26, 11.52, 45.29),
    (25, "Selection + Synthesis", 90, 2255719055, 1.46, 4.95, 41.05),
    (50, "Selection + Synthesis", 90, 2255719055, 1.55, 5.13, 39.31),
    (75, "Selection + Synthesis", 90, 2255719055, 1.27, 4.65, 42.70),
    (125, "Selection + Synthesis", 90, 2255719055, 1.20, 4.72, 43.94),
    (350, "Selection + Synthesis", 90, 2255719055, 1.00, 5.71, 44.69),
    (500, "Selection + Synthesis", 90, 2255719055, 0.90, 5.98, 44.89),
    (25, "Selection + Synthesis", 100, 2507011688, 1.46, 4.92, 39.12),
    (50, "Selection + Synthesis", 100, 2507011688, 1.54, 5.14, 38.54),
    (75, "Selection + Synthesis", 100, 2507011688, 1.27, 4.69, 42.14),
    (125, "Selection + Synthesis", 100, 2507011688, 1.22, 4.71, 43.35),
    (350, "Selection + Synthesis", 100, 2507011688, 1.12, 4.75, 44.94),
    (500, "Selection + Synthesis", 100, 2507011688, 0.93, 5.53, 44.97),
    (1500, "Selection + Synthesis", 100, 2507011688, 0.41, 9.53, 45.27),
)


def _digest() -> str:
    h = hashlib.sha256()
    for row in QUALITY_TABLE:
        h.update(repr(row).encode("utf-8"))
    for row in RESULTS_TABLE:
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


FIXTURE_SHA256 = "ed4be8691af238a2fed14b333e4ca546a4092359c990c5f900f7fec8ff90bb18"


def verify_fixtures() -> None:
    """Fail loudly if the embedded tables were altered."""
    if len(QUALITY_TABLE) != 30 or len(RESULTS_TABLE) != 207:
        raise QTokensError(
            f"fixture tables corrupted: {len(QUALITY_TABLE)} quality rows, "
            f"{len(RESULTS_TABLE)} result rows"
        )
    digest = _digest()
    if digest != FIXTURE_SHA256:
        raise QTokensError(f"fixture checksum mismatch: {digest}")


def fixture_points() -> list[ExperimentPoint]:
    """The embedded experiment points, verified and quality-joined. A
    result row holds the first seven columns of an experiments CSV row."""
    verify_fixtures()
    return experiment_points(
        (dict(zip(EXPERIMENTS_CSV_HEADER, row)) for row in RESULTS_TABLE), QUALITY_TABLE
    )
