"""Numerical construction of isometric embedding perturbations.

Given a free embedding F0 of a 1- or 2-dimensional chart and a small
symmetric-tensor increment f supported inside the chart, the package builds
the perturbed embedding F = F0 + a^2 v whose pullback metric gains exactly
a^2 f, by a fixed-point iteration around the frame pseudoinverse of F0.
On top of the single-chart solve it ships time-dependent metric families
(with adaptive horizon), a two-chart circle atlas and a four-chart flat-torus
atlas with stage-by-stage gluing, a discrete Hoelder-norm calculus with a
verified inequality suite, and a scenario-driven CLI.
"""
