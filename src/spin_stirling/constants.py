"""Frozen physical constants and numerical guard values.

All exchange energies in this package are carried as ``J / k_B`` in kelvin,
so most of the physics never needs a dimensional constant.  The values
below exist for presentation (eV conversion), for magnetometry interop
(cgs susceptibility), and for the numerical guards that keep the
exponential evaluations deterministic.
"""

from __future__ import annotations

from typing import Final

__all__ = [
    "KB_EV_PER_K",
    "CURIE_CONSTANT_EMU_K_PER_MOL",
    "ORACLE_EXPONENT_CAP",
    "DEFAULT_COUPLING_CAP_K",
]

#: Boltzmann constant in eV per kelvin (CODATA 2018 exact value).
#: Used only when converting ledger energies from kelvin*k_B to eV for
#: reporting; the internal unit system never multiplies by it.
KB_EV_PER_K: Final[float] = 8.617333262e-05

#: Curie constant prefactor C = N_A * mu_B**2 / k_B in cgs units,
#: emu K / mol.  The molar Bleaney-Bowers susceptibility of the dimer is
#: chi(T) = 2 C g**2 F(J, T) / T with F the dimensionless shape factor.
CURIE_CONSTANT_EMU_K_PER_MOL: Final[float] = 0.375149

#: Largest magnitude of the Boltzmann exponent x = J / (k_B T) that the
#: brute-force Gibbs oracle will evaluate literally.  exp(709) is close
#: to the IEEE double overflow threshold; beyond this cap the oracle
#: raises OverflowCapError instead of propagating inf.  The closed-form
#: state functions use a rewritten form and are exempt.
ORACLE_EXPONENT_CAP: Final[float] = 700.0

#: Default cap on |J / k_B| in kelvin accepted by Coupling.  Real dimer
#: exchange constants sit well below 1e3 K; the cap guards against unit
#: mistakes (for example passing J in joules) rather than numerics.
DEFAULT_COUPLING_CAP_K: Final[float] = 1.0e4
