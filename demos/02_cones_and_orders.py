"""
Ordering cones and the partial orders they induce
=================================================

A closed pointed convex cone C with nonempty interior turns R^m into a
partially ordered space: x <=_C y iff y - x is in C, and x <_C y iff y - x
is interior. Every test below is a finite set of linear inequalities.
"""

import numpy as np

from vvicert import OrderingCone

# The default cone everywhere in this toolkit: the nonnegative orthant.
orthant = OrderingCone.orthant(2)
print(orthant)
print("(0,0) in C          :", orthant.contains([0.0, 0.0]))
print("(1,-0.1) in C       :", orthant.contains([1.0, -0.1]))
print("(1,1)  interior     :", orthant.strictly_contains([1.0, 1.0]))
print("(1,0)  interior     :", orthant.strictly_contains([1.0, 0.0]))

# The induced orders test y - x, including reflexivity of <=_C (0 is a cone
# member).
x, y = np.array([0.0, 0.0]), np.array([1.0, 2.0])
print("(0,0) <=_C (1,2)    :", orthant.contains(y - x))
print("(1,2) <=_C (1,2)    :", orthant.contains(y - y))
print("(1,2) <_C  (1,2)    :", orthant.strictly_contains(y - y))

# e vectors scale the norm penalty in the approximate-optimality notions and
# must point strictly into the cone.
print("e=(0.5,0.5) valid   :", orthant.validate_e([0.5, 0.5]))
print("e=(1,0)     valid   :", orthant.validate_e([1.0, 0.0]))

# General polyhedral cones can be built from facet normals, in any dimension,
# or from generators, whose facet normals are derived; the normals alone
# decide every order test.
wedge = OrderingCone(generators=np.array([[1.0, 1.0], [0.0, 1.0]]))
print("\nwedge cone from rays (1,0), (1,1)")
print("facet normals:\n", np.round(wedge.normals, 6))
print("(1,0.5) in wedge    :", wedge.contains([1.0, 0.5]))
print("(0,1)   in wedge    :", wedge.contains([0.0, 1.0]))
print("interior witness    :", np.round(wedge.interior_witness, 6))
