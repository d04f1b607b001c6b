"""The ordering cones and direction sets of the gallery problems, as the
objects that the hand-built test problems share."""

from dirpareto.geometry import DirectionSet, HalfspaceCone

R_PLUS = HalfspaceCone.from_rows([[1.0]])
R2_PLUS = HalfspaceCone.from_rows([[1.0, 0.0], [0.0, 1.0]])
# K = cone conv{(1,0),(1,1)} in H-representation
K_WEDGE = HalfspaceCone.from_rows([[0.0, 1.0], [1.0, -1.0]])

L_X_AXIS = DirectionSet.finite([(1.0, 0.0), (-1.0, 0.0)])
L_DOWN = DirectionSet.finite([(0.0, -1.0)])
L_PLUS = DirectionSet.finite([(1.0,)])
L_MINUS = DirectionSet.finite([(-1.0,)])
L_BOTH = DirectionSet.finite([(-1.0,), (1.0,)])
