"""Assembly of the whole workflow management system (paper Fig. 4).

One :class:`WorkflowSystem` builds the simulated world: a repository node, an
execution-service node, a configurable pool of worker nodes and a client
node, all joined by the ORB over the (faulty, partitionable) network.  It
exposes the same client surface the paper's Java-applet administration tools
used: deploy a script, instantiate it, watch it run, reconfigure it — while
experiments crash nodes and drop messages underneath.

The execution service is built from one set of construction arguments,
standalone or as replicas (:mod:`repro.replication`), and always receives a
:class:`~repro.resilience.ResilienceConfig`: adaptive dispatch
(:mod:`repro.resilience`) is its only dispatch path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from ..engine.events import WorkflowStatus
from ..engine.registry import ImplementationRegistry
from ..net.clock import EventClock
from ..net.network import LatencyModel, Network
from ..net.node import Node
from ..orb.broker import CommFailure, ObjectBroker, Overloaded
from ..orb.proxy import Proxy
from ..overload import OverloadConfig
from ..replication import (
    LEASE_INTERFACE,
    LeaseService,
    REPLICA_INTERFACE,
    ReplicatedExecutionService,
    Role,
)
from ..resilience import ResilienceConfig
from ..txn.store import ObjectStore
from .execution import EXECUTION_INTERFACE, ExecutionService
from .repository import REPOSITORY_INTERFACE, RepositoryService
from .worker import WORKER_INTERFACE, ServiceProfile, TaskWorker

TERMINAL = (
    WorkflowStatus.COMPLETED.value,
    WorkflowStatus.ABORTED.value,
    WorkflowStatus.FAILED.value,
)


class WorkflowSystem:
    """The full distributed workflow system, simulated on one event clock."""

    def __init__(
        self,
        workers: int = 2,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        durable: bool = True,
        dispatch_timeout: float = 30.0,
        sweep_interval: float = 10.0,
        registry: Optional[ImplementationRegistry] = None,
        resilience: Optional[ResilienceConfig] = None,
        dup_rate: float = 0.0,
        reorder_window: float = 0.0,
        journal_batch: bool = True,
        journal_window: float = 5.0,
        group_commit: bool = True,
        mirror_path: Optional[str] = None,
        replicas: int = 0,
        lease_duration: float = 60.0,
        repl_interval: float = 5.0,
        overload: Optional[OverloadConfig] = None,
        worker_service_time: float = 0.0,
        worker_lanes: int = 1,
    ) -> None:
        """``resilience`` tunes the adaptive dispatch layer (backoff, circuit
        breakers, health routing, hedging).  Defaults to
        ``ResilienceConfig.for_timeouts(dispatch_timeout, sweep_interval,
        seed=seed)``.  ``dup_rate``/``reorder_window`` feed the
        network's duplication and reordering fault model.

        The I/O core (docs/PROTOCOLS.md §11) is on by default:
        ``journal_batch`` batches the execution journal's appends into one
        transaction per durability barrier and ``group_commit`` coalesces
        the execution store's WAL mirror fsyncs; ``mirror_path`` attaches a
        real on-disk JSON-lines mirror so those fsyncs have physical cost
        (benchmarks use this to measure fsyncs/step honestly).

        ``replicas`` > 0 builds a replicated execution service instead of a
        standalone one (docs/PROTOCOLS.md §12): that many
        :class:`~repro.replication.ReplicatedExecutionService` copies — one
        per node — plus a :class:`~repro.replication.LeaseService` arbiter.
        The first replica wins the bootstrap lease and registers itself under
        the public ``"execution"`` name; the rest tail its WAL as warm
        standbys and take over (with a fresh fencing epoch) when the lease
        lapses.  ``replicas=0`` is the legacy unreplicated layout, unchanged.

        ``overload`` tunes the admission layer (docs/PROTOCOLS.md §13):
        bounded admission queue, adaptive concurrency window and priority
        shedding on the execution service.  ``worker_service_time`` /
        ``worker_lanes`` give every worker a finite-capacity profile (each
        task occupies one of ``worker_lanes`` lanes for
        ``worker_service_time`` virtual seconds) — 0 keeps workers
        instantaneous, the legacy behaviour."""
        self.clock = EventClock()
        self.network = Network(
            self.clock,
            latency or LatencyModel(1.0, 0.5),
            loss_rate,
            seed,
            dup_rate=dup_rate,
            reorder_window=reorder_window,
        )
        self.broker = ObjectBroker(self.clock, self.network)
        self.registry = registry or ImplementationRegistry()

        self.repository_node = Node("repository-node", self.clock, self.network)
        self.repository_store = ObjectStore("repository-store")
        self.repository = RepositoryService("repository", self.repository_store)
        self.repository_node.install(self.repository)
        self.broker.register(
            "repository", REPOSITORY_INTERFACE, self.repository, self.repository_node
        )

        self.worker_nodes: List[Node] = []
        self.workers: List[TaskWorker] = []
        worker_names: List[str] = []
        profile = (
            ServiceProfile(worker_service_time, worker_lanes)
            if worker_service_time > 0
            else None
        )
        for index in range(workers):
            node = Node(f"worker-node-{index + 1}", self.clock, self.network)
            worker = TaskWorker(f"worker-{index + 1}", self.registry, profile=profile)
            node.install(worker)
            name = f"worker-{index + 1}"
            self.broker.register(name, WORKER_INTERFACE, worker, node)
            self.worker_nodes.append(node)
            self.workers.append(worker)
            worker_names.append(name)

        # what every execution service gets, standalone or replicated
        service_kwargs = dict(
            repository_name="repository",
            worker_names=worker_names,
            resilience=resilience
            or ResilienceConfig.for_timeouts(dispatch_timeout, sweep_interval, seed=seed),
            sweep_interval=sweep_interval,
            journal_batch=journal_batch,
            journal_window=journal_window,
            overload=overload,
        )
        self.lease_node: Optional[Node] = None
        self.lease: Optional[LeaseService] = None
        self.replica_nodes: List[Node] = []
        self.execution_replicas: List[ReplicatedExecutionService] = []
        if replicas > 0:
            # The arbiter comes up first: replicas acquire during on_start.
            self.lease_node = Node("lease-node", self.clock, self.network)
            self.lease_store = ObjectStore("lease-store")
            self.lease = LeaseService("lease", self.lease_store, duration=lease_duration)
            self.lease_node.install(self.lease)
            self.broker.register("lease", LEASE_INTERFACE, self.lease, self.lease_node)

            replica_names = [f"execution-r{i + 1}" for i in range(replicas)]
            for i, rname in enumerate(replica_names):
                # replica 1 keeps the legacy node name so nemesis schedules
                # written against "execution-node" hit the bootstrap primary
                node_name = "execution-node" if i == 0 else f"standby-node-{i + 1}"
                node = Node(node_name, self.clock, self.network)
                store = ObjectStore(
                    f"execution-store-r{i + 1}",
                    mirror_path=mirror_path if i == 0 else None,
                    group_commit=group_commit,
                )
                service = ReplicatedExecutionService(
                    rname,
                    store,
                    self.broker,
                    lease_name="lease",
                    peer_names=replica_names,
                    repl_interval=repl_interval,
                    **service_kwargs,
                )
                self.replica_nodes.append(node)
                self.execution_replicas.append(service)
                # every replica is reachable under its own (unfenced-stream)
                # name before any on_start runs, so the bootstrap primary can
                # ship to standbys installed after it
                self.broker.register(
                    rname, REPLICA_INTERFACE, service, node, fence=service._fence
                )
            for node, service in zip(self.replica_nodes, self.execution_replicas):
                node.install(service)  # replica 1 wins the bootstrap lease
            self.execution_node = self.replica_nodes[0]
            self.execution_store = self.execution_replicas[0].store
            self.execution: ExecutionService = self.execution_replicas[0]
        else:
            self.execution_node = Node("execution-node", self.clock, self.network)
            self.execution_store = ObjectStore(
                "execution-store", mirror_path=mirror_path, group_commit=group_commit
            )
            self.execution = ExecutionService(
                "execution", self.execution_store, self.broker,
                durable=durable, **service_kwargs,
            )
            self.execution_node.install(self.execution)
            self.broker.register(
                "execution", EXECUTION_INTERFACE, self.execution, self.execution_node
            )

        self.client_node = Node("client-node", self.clock, self.network)

    def primary_execution(self) -> Optional[ExecutionService]:
        """The execution service currently owning the instances: the live
        primary replica when replicated, the single service otherwise (or
        None while no live primary exists — e.g. mid-failover)."""
        if not self.execution_replicas:
            return self.execution if self.execution_node.alive else None
        for node, service in zip(self.replica_nodes, self.execution_replicas):
            if node.alive and service.role is Role.PRIMARY:
                return service
        return None

    # -- client-side proxies (what the paper's browser tools talk to) ----------------

    def repository_proxy(self, from_node: Optional[Node] = None) -> Proxy:
        return Proxy(self.broker, from_node or self.client_node, "repository")

    def execution_proxy(self, from_node: Optional[Node] = None) -> Proxy:
        return Proxy(self.broker, from_node or self.client_node, "execution")

    # -- convenience client operations ---------------------------------------------------

    def deploy(self, script_name: str, text: str) -> int:
        return self.repository_proxy().store_script(script_name, text)

    def instantiate(
        self,
        script_name: str,
        root_task: str,
        inputs: Optional[Mapping[str, Any]] = None,
        input_set: str = "main",
    ) -> str:
        if not self.execution_replicas:
            return self.execution_proxy().instantiate(
                script_name, root_task, input_set, dict(inputs or {})
            )
        # Replicated: the "execution" alias may momentarily point at a dead
        # or demoted replica mid-failover; retry across lease turnover like
        # any CORBA client facing COMM_FAILURE would.
        last: Optional[Exception] = None
        for _attempt in range(40):
            try:
                return self.execution_proxy().instantiate(
                    script_name, root_task, input_set, dict(inputs or {})
                )
            except Overloaded:
                # A backpressure refusal is not a failover: surface it to the
                # caller's cooperative backoff instead of hammering the
                # primary 40 more times (Overloaded subclasses CommFailure).
                raise
            except CommFailure as exc:
                last = exc
                self.clock.advance(self.execution.repl_interval)
        raise last if last is not None else CommFailure("no primary")

    def status(self, iid: str) -> Dict[str, Any]:
        return self.execution_proxy().status(iid)

    def result(self, iid: str) -> Dict[str, Any]:
        return self.execution_proxy().result(iid)

    def run_until_terminal(
        self, iid: str, max_time: float = 100_000.0, check_every: float = 25.0
    ) -> Dict[str, Any]:
        """Advance simulated time until the instance terminates (or the time
        budget runs out — the result then reports its last observed state).

        Status is read directly off the execution service (not through the
        ORB) so monitoring does not perturb the experiment; when the
        execution node is down the system simply keeps running time forward,
        exactly as an operator would wait out an outage.
        """
        deadline = self.clock.now + max_time
        while self.clock.now < deadline:
            self.clock.advance(check_every)
            service = self.primary_execution()
            if service is None:
                continue  # node down / failover in progress: wait it out
            runtime = service.runtimes.get(iid)
            if runtime is None:
                if service.durable:
                    continue  # not yet recovered (or not yet replicated over)
                break  # lost for good: the ablation outcome
            if runtime.tree.status.value in TERMINAL:
                break
        service = self.primary_execution()
        if service is not None and iid in service.runtimes:
            return service.result(iid)
        return {"instance": iid, "status": "lost", "outcome": None, "objects": {},
                "marks": [], "error": "instance not present on execution node"}
