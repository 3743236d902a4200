"""Forked worker processes that compute tasks and hand results back in order.

``forked_map(compute, n_tasks, workers)`` forks ``workers`` children of
the calling process. Each inherits ``compute`` and everything it reads
through the fork, so only a task's index goes out and only its pickled
result comes back. The parent hands out tasks in index order, one at a
time to whichever child is free, and yields results in index order, so
the output cannot depend on the worker count. A task's exception is
raised again in the parent at that task's place in the order. A child
that dies while it holds a task, before its whole result is back, raises
``ChildProcessError``; one that dies idle, after its last result, does
not, since the parent polls only the children that hold a task. Every
child is reaped before the generator ends, however it ends.

Why not ``multiprocessing``: a fork ``Pool``'s ``imap`` waits forever
for the task of a worker that is killed (by the OOM killer, say), where
this raises at once; ``ProcessPoolExecutor`` raises too, but its import
and start-up add about 5 ms to each command.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from collections.abc import Callable, Iterator

_HEADER_BYTES = 8  # a task index, or the length of a pickled result


class _Worker:
    """One forked child and the parent's ends of its two pipes."""

    def __init__(self, compute: Callable[[int], object], siblings: list[_Worker]):
        tasks_read, self.tasks = os.pipe()
        results_read, results_write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (tasks_read, self.tasks, results_read, results_write):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                # Close every parent end, so each child sees its own task pipe close.
                for fd in (self.tasks, results_read, *(fd for w in siblings for fd in w.fds())):
                    os.close(fd)
                _serve(compute, tasks_read, results_write)
                status = 0
            finally:
                os._exit(status)
        os.close(tasks_read)
        os.close(results_write)
        self.results = open(results_read, "rb")
        self.task: int | None = None

    def fds(self) -> tuple[int, int]:
        return self.tasks, self.results.fileno()

    def send(self, index: int) -> None:
        self.task = index
        os.write(self.tasks, index.to_bytes(_HEADER_BYTES, "little"))

    def receive(self) -> tuple[bool, object]:
        header = self.results.read(_HEADER_BYTES)
        size = int.from_bytes(header, "little")
        data = self.results.read(size) if len(header) == _HEADER_BYTES else b""
        if not data or len(data) < size:  # the child ended before writing all of it
            raise ChildProcessError(f"worker process {self.pid} ended without returning task {self.task}")
        return pickle.loads(data)


def _serve(compute: Callable[[int], object], tasks_fd: int, results_fd: int) -> None:
    """Child side: answer each task index until the task pipe closes."""
    with open(tasks_fd, "rb") as tasks, open(results_fd, "wb") as results:
        while len(header := tasks.read(_HEADER_BYTES)) == _HEADER_BYTES:
            try:
                message = (True, compute(int.from_bytes(header, "little")))
            except Exception as exc:  # raised again by the parent
                message = (False, exc)
            data = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            results.write(len(data).to_bytes(_HEADER_BYTES, "little") + data)
            results.flush()


def forked_map(compute: Callable[[int], object], n_tasks: int, workers: int) -> Iterator[object]:
    """Yield ``compute(i)`` for ``i`` in ``range(n_tasks)``, computed in
    ``workers`` forked children."""
    pool: list[_Worker] = []
    finished = False
    try:
        for _ in range(workers):
            pool.append(_Worker(compute, pool))
        by_fd = {worker.results.fileno(): worker for worker in pool}
        poller = select.poll()  # holds the workers that hold a task
        tasks = iter(range(n_tasks))
        for worker, index in zip(pool, tasks):
            worker.send(index)
            poller.register(worker.results, select.POLLIN)
        done: dict[int, tuple[bool, object]] = {}
        for index in range(n_tasks):
            while index not in done:
                for fd, _ in poller.poll():
                    worker = by_fd[fd]
                    done[worker.task] = worker.receive()
                    if not done[worker.task][0]:
                        tasks = iter(())  # the run ends at this task: no later one is needed
                    if (task := next(tasks, None)) is not None:
                        worker.send(task)
                    else:
                        poller.unregister(fd)
            ok, value = done.pop(index)
            if not ok:
                raise value
            yield value
        finished = True
    finally:
        for worker in pool:
            os.close(worker.tasks)
            worker.results.close()
            if not finished:
                os.kill(worker.pid, signal.SIGKILL)
        for worker in pool:
            os.waitpid(worker.pid, 0)
