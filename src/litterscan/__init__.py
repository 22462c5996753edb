"""Plastic-cover detection in 13-band multispectral imagery: spectral index
maps plus a small per-pixel MLP classifier."""

__version__ = "0.1.0"
