"""flagdyn: exact geometry of pointed projective lines, classification
oracles for the transitive subalgebras of sl(3), and simulation of the two
associated dynamical families (nilmanifold affine automorphisms, frame rates
of the diagonal flow)."""
