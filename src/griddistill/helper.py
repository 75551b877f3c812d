"""A reused helper process that runs work for its parent on a second CPU.

The first task forks the helper (`shared`); every later task in the
process reuses it. A task is a module-level function and its arguments,
sent as a length-prefixed pickle (the function goes by name, so the helper
runs its own copy, as it was when the helper was forked). A task may carry
a stream: rows of `width` raw float64 values that the parent writes after
the header while the helper reads them. The function then takes, as its
last argument, an iterator over the rows, each read into the same buffer.
The reply, a length-prefixed pickle on a second pipe, is (True, the
function's value) or (False, the exception it raised).

Two stages use it, only where `fits()` holds:
- distill streams each (theta, real gradient) pair it draws, and the
  helper runs the epoch loop on them (`distill._descend_rows`);
- training hands the helper the second half of each cohort's students,
  and trains the first half itself meanwhile (`trainer._train_block`).

Where no helper takes the task (`start` returns None: the fork failed,
or the reused helper had ended while idle), the caller runs it itself,
with the same bytes. A failure of the helper during a task closes it: the
parent raises the helper's own exception, or RuntimeError naming its exit
status. Either way the next task forks a fresh helper.

The helper ends at the end of its task pipe: when `close` closes it (at
exit, or killing it if a task is still out), or when the parent dies. A
forked child of the parent does not inherit it.
"""

import atexit
import fcntl
import os
import pickle
import select
import signal
import struct

import numpy as np

_PIPE_BYTES = 1 << 20  # ~13 default-size (theta, real gradient) pairs in flight
_LENGTH = struct.Struct("<Q")


def fits() -> bool:
    """Whether this process may use two CPUs for each BLAS thread it runs,
    so that a helper's BLAS and its own need not share a CPU. The thread
    count is the one OpenBLAS takes at start-up: OPENBLAS_NUM_THREADS,
    else GOTO_NUM_THREADS, else OMP_NUM_THREADS, else one per CPU. With
    two BLAS threads each on two CPUs, a full-size distill took 11-45 s
    on the helper against 5 s inline. Where the OS cannot say which CPUs
    the process may use (no `os.sched_getaffinity`), it counts as one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            threads = int(value)
            break
    return cpus >= 2 * threads


# While a task runs, both ends poll their non-blocking pipes instead of
# sleeping on them. On a two-vCPU VM, a variant that slept and woke once
# per distill pair left the parent's later single-process stages (collect,
# train, eval) 25-45% slower in 15 of 17 alternating distill-soft
# benchmark pairs.


def _write(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        try:
            view = view[os.write(fd, view) :]
        except BlockingIOError:
            pass


def _read_into(fd: int, buf) -> None:
    """Fill `buf` from `fd`; EOFError if the pipe ends first."""
    view = memoryview(buf).cast("B")
    while view:
        try:
            got = os.readv(fd, [view])
        except BlockingIOError:
            continue
        if not got:
            raise EOFError
        view = view[got:]


def _frame(obj) -> bytes:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(data)) + data


def _send(fd: int, obj) -> None:
    _write(fd, _frame(obj))


def _recv(fd: int):
    head = bytearray(_LENGTH.size)
    _read_into(fd, head)
    body = bytearray(_LENGTH.unpack(head)[0])
    _read_into(fd, body)
    return pickle.loads(body)


class Helper:
    """A forked process that runs one task at a time for its parent:
    `submit` a task, do other work, then take its `result`."""

    def __init__(self):
        task_r, self.tasks = os.pipe()
        self.results, reply_w = os.pipe()
        try:
            fcntl.fcntl(self.tasks, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        except OSError:  # over the user's pipe-buffer limit: the default size still works
            pass
        for fd in (task_r, self.tasks, self.results, reply_w):
            os.set_blocking(fd, False)
        self.parent = os.getpid()
        self.pending = False  # a task is out and its reply not yet read
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, self.tasks, self.results, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self.tasks)
            os.close(self.results)
            code = 1
            try:
                code = _serve(task_r, reply_w)
            finally:
                os._exit(code)
        os.close(task_r)
        os.close(reply_w)
        atexit.register(self.close)

    @property
    def closed(self) -> bool:
        return self.tasks is None

    def submit(self, fn, args: tuple, width: int = 0, stream=()) -> bool:
        """Start `fn(*args)` in the helper, or, with a `width`,
        `fn(*args, rows)`, where rows yields what this process writes from
        `stream`: one tuple of float64 arrays per row, `width` values in
        all. Returns once the stream is written: True, or False if the
        helper had ended before it took the task (it is then closed, and
        nothing of `stream` was read)."""
        head = _frame((fn, args, width))
        try:
            # between tasks the pipe is empty, so this write takes bytes
            # unless no helper is left to read them
            head = head[os.write(self.tasks, head) :]
        except BrokenPipeError:
            self.close()
            return False
        self.pending = True
        try:
            try:
                _write(self.tasks, head)
                for arrays in stream:
                    for array in arrays:
                        _write(self.tasks, array)
            except BrokenPipeError:
                pass  # the helper has ended; its reply or exit status says why
        except BaseException:
            self.close()
            raise
        return True

    def result(self):
        """The submitted task's value. A failure of the helper closes it
        and raises: its own exception, or RuntimeError naming its exit
        status."""
        try:
            ok, value = _recv(self.results)
        except EOFError:
            code = self.close()
            cause = f" ({signal.strsignal(-code)})" if code < 0 else ""
            raise RuntimeError(
                f"helper process {self.pid} ended with exit status {code}{cause}"
            ) from None
        except BaseException:
            self.close()
            raise
        self.pending = False
        if not ok:
            self.close()
            raise value
        return value

    def close(self):
        """End the helper and reap it, killing it if a task is still out;
        its exit code, or None if this process did not fork it or it was
        closed already."""
        if self.closed:
            return None
        atexit.unregister(self.close)
        os.close(self.tasks)
        os.close(self.results)
        self.tasks = self.results = None
        if os.getpid() != self.parent:
            return None
        if self.pending:  # its reply would never be read
            os.kill(self.pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _rows(fd: int, width: int):
    buf = np.empty(width)
    while True:
        _read_into(fd, buf)
        yield buf


def _serve(tasks: int, replies: int) -> int:
    """The helper's loop: run each task, send its reply. Returns the exit
    code: 0 at the end of the task pipe or of the parent's reply pipe, 1
    after a failed task, which it has reported."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    try:
        while True:
            select.select([tasks], [], [])  # sleep between tasks
            fn, args, width = _recv(tasks)
            if width:
                args = (*args, _rows(tasks, width))
            try:
                reply = (True, fn(*args))
            except EOFError:
                raise
            except Exception as exc:  # reported to the parent, which raises it
                reply = (False, exc)
            _send(replies, reply)
            if not reply[0]:
                return 1
    except (EOFError, BrokenPipeError):
        return 0


_helper = None  # this process's helper, forked on first use


def shared() -> Helper:
    """This process's helper: the one it forked last, or a new one if it
    has none or that one is closed."""
    global _helper
    if _helper is None or _helper.closed:
        _helper = Helper()
    return _helper


def start(fn, args: tuple, width: int = 0, stream=()):
    """`submit` the task to this process's helper (`shared`): the helper
    that took it, or None if none could, and the caller runs the task
    itself. That is when no process or pipe can be made (EAGAIN, ENOMEM,
    EMFILE), or when the reused helper had ended while idle; the next task
    then forks a fresh one."""
    try:
        worker = shared()
    except OSError:
        return None
    return worker if worker.submit(fn, args, width, stream) else None


def _forget():
    """In a forked child: the parent's helper is not the child's."""
    global _helper
    if _helper is not None:
        _helper.close()
        _helper = None


os.register_at_fork(after_in_child=_forget)
