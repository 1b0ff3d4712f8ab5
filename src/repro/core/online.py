"""Online learning under concept drift (Section V-G).

The paper compares two regimes:

* ``RL4OASD-P1`` — train once on the first part of the day and keep the model
  frozen for every later part;
* ``RL4OASD-FT`` — keep fine-tuning the model as the trajectories of each new
  part are recorded, so the notion of "normal route" tracks the changing
  traffic.

:class:`OnlineLearner` wraps a trainer and implements the FT regime; the P1
regime is simply "never call :meth:`observe_part`". Fine-tuning cost is
tracked per part (:meth:`OnlineLearner.training_time_by_part`, Figure 6d),
and a ``batch_size`` above 1 fine-tunes every round in batches of that many
trajectories so the learner keeps pace with fleet-scale ingest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..exceptions import ModelError
from ..trajectory.models import MatchedTrajectory
from .detector import OnlineDetector
from .rl4oasd import RL4OASDModel, RL4OASDTrainer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..serve.service import DetectionService


@dataclass
class FineTuneRecord:
    """Bookkeeping of one fine-tuning round."""

    part: int
    num_trajectories: int
    seconds: float


class OnlineLearner:
    """Keeps an RL4OASD model up to date as new trajectory data arrives.

    ``batch_size`` (optional) overrides the trainer's training batch size for
    the fine-tuning rounds only: with a value above 1 each round takes one
    vectorized episode and gradient step per batch of new trajectories,
    which cuts the per-part fine-tuning cost without changing how the
    initial model is trained. ``None`` keeps the trainer's configured size.
    """

    def __init__(self, trainer: RL4OASDTrainer, fine_tune_epochs: int = 1,
                 batch_size: Optional[int] = None):
        if fine_tune_epochs < 1:
            raise ModelError("fine_tune_epochs must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ModelError("batch_size must be at least 1")
        self._trainer = trainer
        self._fine_tune_epochs = fine_tune_epochs
        self._batch_size = batch_size
        self._records: List[FineTuneRecord] = []
        self._model: Optional[RL4OASDModel] = None
        self._services: List["DetectionService"] = []

    @property
    def records(self) -> List[FineTuneRecord]:
        return list(self._records)

    @property
    def trainer(self) -> RL4OASDTrainer:
        return self._trainer

    @property
    def model(self) -> RL4OASDModel:
        """The current (possibly fine-tuned) model."""
        if self._model is None:
            raise ModelError("call initial_fit() before requesting the model")
        return self._model

    def attach_service(self, service: "DetectionService") -> "DetectionService":
        """Keep a detection service current with this learner.

        After every :meth:`observe_part` fine-tuning round the learner
        pushes *one atomic control-plane update* into the attached service
        (:meth:`~repro.serve.service.DetectionService.swap`): the fine-tuned
        weights together with the extended normal-route history snapshot —
        every shard switches both atomically, in-flight streams keep
        running (each pinned to the history it opened with). Returns the
        service, so ``learner.attach_service(model.detection_service())``
        reads naturally. Attach any number of services; detach by
        :meth:`detach_service`.
        """
        if service not in self._services:
            self._services.append(service)
        return service

    def detach_service(self, service: "DetectionService") -> None:
        """Stop pushing weight updates to ``service`` (no-op if unknown)."""
        if service in self._services:
            self._services.remove(service)

    def initial_fit(self) -> RL4OASDModel:
        """Train the model on the initial data partition (Part 1)."""
        self._model = self._trainer.train()
        return self._model

    def observe_part(self, part: int,
                     trajectories: Sequence[MatchedTrajectory]) -> FineTuneRecord:
        """Fine-tune on the trajectories recorded during one part of the day."""
        if self._model is None:
            raise ModelError("call initial_fit() before observe_part()")
        started = time.perf_counter()
        self._trainer.fine_tune(trajectories, epochs=self._fine_tune_epochs,
                                batch_size=self._batch_size)
        record = FineTuneRecord(
            part=part,
            num_trajectories=len(trajectories),
            seconds=time.perf_counter() - started,
        )
        self._records.append(record)
        self._push_to_services()
        return record

    def _push_to_services(self) -> None:
        """Push weights *and* history into every attached service, atomically.

        Fine-tuning moves two things: the network weights and the extended
        per-SD-pair history (``fine_tune`` minted a new snapshot version).
        Both ride one :meth:`DetectionService.swap`, so no shard can ever
        serve new weights against stale normal routes or vice versa. Closed
        services are dropped silently (their streams are gone anyway) and a
        failing swap on one service never blocks the push to the others —
        the first failure is re-raised once every reachable service has
        been updated.
        """
        first_error: Optional[BaseException] = None
        for service in list(self._services):
            if service.closed:
                self._services.remove(service)
                continue
            try:
                # The *pipeline* (not its bare snapshot) is what lets the
                # facade reach the store's delta log and broadcast only the
                # appended trajectories when every shard holds the base.
                service.swap(weights=self._model,
                             history=self._model.pipeline)
            except Exception as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    def detector(self) -> OnlineDetector:
        """A detector using the current (possibly fine-tuned) model."""
        if self._model is None:
            raise ModelError("call initial_fit() before requesting a detector")
        return self._model.detector()

    def training_time_by_part(self) -> Dict[int, float]:
        """Seconds spent fine-tuning per part (Figure 6d)."""
        return {record.part: record.seconds for record in self._records}
