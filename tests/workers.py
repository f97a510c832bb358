"""Stand-ins for autodiff._worker, the extra thread of training and eval.

Each has the one method the engine calls, submit(fn, *args) -> Future.
"""

import threading
from concurrent.futures import Future, ThreadPoolExecutor


class IdleWorker:
    """A second thread that never starts a job, so every job runs on the
    thread that needs its result."""

    def submit(self, fn, *args):
        return Future()


class EagerWorker:
    """A second thread that has started each job before submit returns, so
    no job runs on the calling thread.  threads holds each thread a job ran
    on."""

    def __init__(self):
        self.threads = set()
        self._pool = ThreadPoolExecutor(1, "eager-worker")

    def submit(self, fn, *args):
        started = threading.Event()

        def run():
            self.threads.add(threading.current_thread())
            started.set()
            return fn(*args)
        future = self._pool.submit(run)
        started.wait()
        return future

    def shutdown(self):
        self._pool.shutdown()


class RecordingWorker:
    """The real second thread, keeping every future it hands out."""

    def __init__(self, worker):
        self.worker = worker
        self.futures = []

    def submit(self, fn, *args):
        future = self.worker.submit(fn, *args)
        self.futures.append(future)
        return future
