"""Numerical toolkit for para-Kahler geometry of D^n.

Split-complex arithmetic on float arrays (a D-value is a trailing axis of
size 2), Lagrangian angle fields and their curvature identity, constructors
for the minimal-Lagrangian families (graphs, null products, para-complex
graphs, equivariant level sets, normal bundles), and the reduced ODE systems
of the equivariant self-similar solutions of mean curvature flow.  Import
the modules (``parakahler.dcore``, ``parakahler.lagrangian``, ...) directly.
"""

__version__ = "0.1.0"
