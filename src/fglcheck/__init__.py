"""Exact-arithmetic verification of formal groups, twisted bialgebras and
power-operation congruences at finite p-adic precision.

Each name is imported from the module that defines it (``fglcheck.cli``,
``fglcheck.formal_groups``, ...); importing the package itself loads none
of them.
"""

__version__ = "0.1.0"
