"""Sentinel-2 MSI band metadata: center wavelengths and native resolutions."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BandSpec:
    """One spectral band: identifier, center wavelength (nm), native ground
    sample distance (m/px)."""

    id: str
    wavelength_nm: float
    native_gsd_m: float

    def __post_init__(self):
        if self.id not in CANONICAL_ORDER:
            raise ValueError(f"unknown band id {self.id!r}")
        if not self.wavelength_nm > 0:  # also rejects NaN
            raise ValueError("wavelength_nm must be positive")
        if self.native_gsd_m not in (10.0, 20.0, 60.0):
            raise ValueError("native_gsd_m must be one of 10, 20, 60")


CANONICAL_ORDER = (
    "B1", "B2", "B3", "B4", "B5", "B6", "B7",
    "B8", "B8A", "B9", "B10", "B11", "B12",
)

# (wavelength nm, native resolution m) for the MSI sensor.
_TABLE = {
    "B1": (443, 60),    # coastal aerosol
    "B2": (490, 10),    # blue
    "B3": (560, 10),    # green
    "B4": (665, 10),    # red
    "B5": (705, 20),    # red edge
    "B6": (740, 20),    # red edge
    "B7": (783, 20),    # red edge
    "B8": (842, 10),    # NIR
    "B8A": (865, 20),   # narrow NIR
    "B9": (945, 60),    # water vapour
    "B10": (1375, 60),  # SWIR cirrus
    "B11": (1610, 20),  # SWIR
    "B12": (2190, 20),  # SWIR
}

SENTINEL2_BANDS = {
    bid: BandSpec(bid, float(wl), float(gsd)) for bid, (wl, gsd) in _TABLE.items()
}


def canonical_spec(band_id: str) -> BandSpec:
    try:
        return SENTINEL2_BANDS[band_id]
    except KeyError:
        raise ValueError(f"unknown band id {band_id!r}") from None


def check_band_ids(ids, what: str) -> None:
    """Raise ValueError unless `ids` is a list or tuple of known band ids,
    each at most once."""
    if not (isinstance(ids, (list, tuple)) and all(isinstance(b, str) for b in ids)):
        raise ValueError(f"{what}: expected a list of band ids")
    for i, band_id in enumerate(ids):
        if band_id not in SENTINEL2_BANDS:
            raise ValueError(f"{what}: unknown band id {band_id!r}")
        if band_id in ids[:i]:
            raise ValueError(f"{what}: duplicate band id {band_id!r}")
