"""Harnesses regenerating every table and figure of the paper.

Each module exposes a ``run_*`` function returning a structured result
whose ``format()`` renders the printable table. ``benchmarks/quality/run.py``
is the one driver: it puts this directory's parent and ``src/`` on the
import path, runs every artefact at fixed settings, writes the renderings
to ``benchmarks/quality/results/`` and checks the claims each artefact
carries. The city, split and trainer plumbing they build on is the
library's :mod:`repro.experiments.common`. What only they use lives here
too: :mod:`.shared` (the methods of Table III, the warm-start control, the
timing and the table rendering), :mod:`.baselines` (the comparison
methods), :mod:`.embeddings` (the Toast substitute pre-training Table IV's
road-segment embeddings) and :mod:`.evaluation` (a detector scored overall
and per length group).

Experiment index:

========  =========================================  =======================
Artefact  Contents                                    Module
========  =========================================  =======================
Table II  dataset statistics                          :mod:`.table2`
Table III effectiveness vs the 7 baselines            :mod:`.table3`
Table IV  ablation study                              :mod:`.table4`
Table V   preprocessing & training time vs data size  :mod:`.table5`
Table VI  cold-start (drop rate) study                :mod:`.table6`
Figure 3  per-point online detection latency          :mod:`.fig3`
Figure 4  per-trajectory latency by length group      :mod:`.fig4`
Figure 5  detour case study                           :mod:`.fig5`
Figure 6  concept drift (vary xi, P1 vs FT)           :mod:`.fig6`
Figure 7  concept-drift case study                    :mod:`.fig7`
(TR)      parameter study for alpha, delta, D         :mod:`.param_study`
========  =========================================  =======================
"""
