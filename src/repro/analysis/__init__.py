"""Analysis utilities shared by the experiments and the examples."""
