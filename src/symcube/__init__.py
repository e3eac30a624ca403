"""Cross-checks for GL(2) symmetric-cube and adjoint-cube local factors,
their dihedral factorizations, and the rank-two constant-term calculus.

Import the module you need, e.g. ``from symcube import localfactor``;
``import symcube`` itself loads no submodule.
"""

__version__ = "0.1.0"


class SymcubeInputError(ValueError):
    """A coefficient, Hecke or configuration file that the parsers in `ingest` reject."""
