"""Road-segment representation learning (substitute for Toast).

The paper pre-trains road-segment embeddings with Toast, a road-network
representation model that fuses traffic patterns and travelling semantics.
Offline we reproduce the role of those embeddings with:

* random walks over the road network's segment-level adjacency
  (:mod:`~paper.embeddings.walks`),
* skip-gram with negative sampling trained on the walks
  (:mod:`~paper.embeddings.skipgram`), and
* fusion with traffic-context features — free-flow speed, travel time, road
  type, degree — (:mod:`~paper.embeddings.toast`).

The resulting vectors initialise the embedding layer of RSRNet exactly as the
Toast vectors do in the paper, and can be ablated by switching to random
initialisation ("w/o road segment embeddings" in Table IV).
"""

from .walks import generate_random_walks
from .skipgram import SkipGramModel, train_skipgram
from .toast import ToastEmbedder, traffic_context_features

__all__ = [
    "generate_random_walks",
    "SkipGramModel",
    "train_skipgram",
    "ToastEmbedder",
    "traffic_context_features",
]
