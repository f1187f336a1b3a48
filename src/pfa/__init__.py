"""Exemplar-based 6D pose refinement engine.

Pure-geometry pipeline: render exemplars offline, retrieve the nearest
views to a rough pose, lift dense 2D flow between crops into 3D-to-2D
correspondences, aggregate across exemplars, and solve one robust PnP.
"""
