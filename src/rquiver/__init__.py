"""Exact computations with Galois-rational quivers, etale species and the
sl2 block correspondence."""

from .exact import QuadElement, QuadMatrix, kernel_basis, nilpotency_exponent
from .gsets import C2, FiniteGroup, GSet, Subgroup
from .quiver import RationalQuiver, cyclic_quiver, gelfand_quiver
from .species import EtaleSpecies, quiver_of_species, species_of_quiver
from .reps import QuiverRep, SpeciesRep, functor_F, functor_H, hom_space
from .unipotent import StabilizationProblem, scaled_sqrt, stabilize, unipotent_sqrt
from .hc import HCModule, build_example, functor_E, inverse_E, roundtrip_hc

__version__ = "0.1.0"

__all__ = [
    "QuadElement", "QuadMatrix", "kernel_basis", "nilpotency_exponent",
    "C2", "FiniteGroup", "GSet", "Subgroup",
    "RationalQuiver", "cyclic_quiver", "gelfand_quiver",
    "EtaleSpecies", "quiver_of_species", "species_of_quiver",
    "QuiverRep", "SpeciesRep", "functor_F", "functor_H", "hom_space",
    "StabilizationProblem", "scaled_sqrt", "stabilize", "unipotent_sqrt",
    "HCModule", "build_example", "functor_E", "inverse_E", "roundtrip_hc",
]
