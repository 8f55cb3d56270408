"""tuneseer: feature-predictive control-parameter selection for
differential evolution.

An off-line campaign over benchmark functions records which DE parameter
triples score well on which objective-function feature clusters; new
functions are then sampled, classified, and optimized with the parameters
that worked best for their cluster.  Improvements over fixed and adaptive
baselines are checked with Wilcoxon signed-rank tests.  Import each name
from the module that defines it.
"""
