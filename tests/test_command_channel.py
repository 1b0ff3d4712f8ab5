"""The process shard's command channel, in one process, without a worker.

A shard's commands cross one one-way pipe as length-prefixed plain-pickle
frames, bounded by a semaphore of ``queue_depth`` slots
(``serve/backends.py``). The facade writes a frame into a non-blocking end,
finishing a partial write as the reader empties the pipe; the worker's
:class:`~repro.serve.backends.CommandReader` reads whatever the pipe holds
in one go and hands the complete frames out one command at a time. Pinned
here, deterministically:

* frames cut anywhere across reads, or written in pieces, decode whole and
  in order, and a frame whose rest has not arrived is waited for;
* ``queued`` counts the commands written and not taken, those the reader
  has read ahead included, and the slots bound them;
* a frame larger than the pipe buffer goes through whole, and its header is
  the one ``Connection.recv_bytes`` reads;
* a pipe with no reader fails the writer at once.
"""

from __future__ import annotations

import fcntl
import multiprocessing
import os
import pickle
import threading

import numpy as np
import pytest

from repro.serve.backends import CommandReader, command_frame, write_frame

COMMANDS = [("ingest_batch", [1, 2], [10, 11], {0: (5, 0.0, 7, None)}),
            ("finalize_async", [1]),
            ("bus_ack", 3),
            ("stats",),
            ("swap", b"\x00" * 300)]


@pytest.fixture
def channel():
    """``(reader, write end, slots)`` of one fresh command pipe, depth 8."""
    reader_end, writer_end = multiprocessing.Pipe(duplex=False)
    slots = multiprocessing.BoundedSemaphore(8)
    yield CommandReader(reader_end, slots, 8), writer_end, slots
    reader_end.close()
    writer_end.close()


def counted(slots, commands):
    """The frames of ``commands``, a slot taken for each as the facade
    does before it writes one."""
    for _ in commands:
        assert slots.acquire(False)
    return b"".join(command_frame(command) for command in commands)


def test_a_stream_cut_at_any_byte_decodes_whole_and_in_order(channel):
    reader, writer, slots = channel
    length = len(b"".join(map(command_frame, COMMANDS[:3])))
    for cut in range(1, length):
        stream = counted(slots, COMMANDS[:3])
        os.write(writer.fileno(), stream[:cut])
        reader.read()
        os.write(writer.fileno(), stream[cut:])
        assert [reader.take() for _ in range(3)] == COMMANDS[:3], cut
        assert reader.queued() == 0


def test_frames_written_in_random_pieces_decode_in_order(channel):
    reader, writer, slots = channel
    rng = np.random.default_rng(11)
    commands = [("ingest_batch", list(range(n)), list(range(n, 2 * n)), {})
                for n in range(40)]
    taken = []
    for start in range(0, len(commands), 8):
        stream = counted(slots, commands[start:start + 8])
        offset = 0
        while offset < len(stream):
            piece = int(rng.integers(1, 97))
            os.write(writer.fileno(), stream[offset:offset + piece])
            offset += piece
            reader.read()
        taken.extend(reader.take() for _ in commands[start:start + 8])
    assert taken == commands


def test_a_frame_whose_rest_is_on_its_way_is_waited_for(channel):
    reader, writer, slots = channel
    frame = counted(slots, COMMANDS[:1])
    os.write(writer.fileno(), frame[:-1])
    reader.read()
    # Counted but incomplete: the worker would block in take, not tick.
    assert reader.queued() == 1
    rest = threading.Timer(0.05, os.write, (writer.fileno(), frame[-1:]))
    rest.start()
    try:
        assert reader.take() == COMMANDS[0]
    finally:
        rest.join(timeout=5.0)
    assert reader.queued() == 0


def test_queued_counts_what_is_written_and_not_taken_read_ahead_included(
        channel):
    reader, writer, slots = channel
    os.write(writer.fileno(), counted(slots, COMMANDS[:3]))
    assert reader.queued() == 3
    reader.read()  # all three are now read ahead; the pipe is empty
    assert reader.queued() == 3
    assert reader.take() == COMMANDS[0]
    assert reader.queued() == 2
    os.write(writer.fileno(), counted(slots, COMMANDS[3:]))
    assert reader.queued() == 4
    # A take serves what was read ahead before it reads the pipe again.
    assert [reader.take() for _ in range(4)] == COMMANDS[1:]
    assert reader.queued() == 0
    # The slots are the bound: eight commands, then a refusal.
    counted(slots, COMMANDS + COMMANDS[:3])
    assert not slots.acquire(False)
    assert reader.queued() == 8


def test_a_frame_larger_than_the_pipe_goes_through_whole(channel):
    reader, writer, slots = channel
    capacity = fcntl.fcntl(writer.fileno(), fcntl.F_GETPIPE_SZ)
    command = ("swap", bytes(range(256)) * (3 * capacity // 256 + 1))
    frame = counted(slots, [command])
    assert len(frame) > 3 * capacity
    os.set_blocking(writer.fileno(), False)
    counts = []

    def attend():
        # The facade reads its worker's bus here; standing in for the
        # worker, the test empties the full command pipe itself.
        counts.append(reader.queued())
        reader.read()

    write_frame(writer.fileno(), frame, attend)
    # It went in pieces, counted all along as the one command it is.
    assert len(counts) >= 3 and set(counts) == {1}
    assert reader.take() == command
    assert reader.queued() == 0


def test_the_frame_header_is_the_one_recv_bytes_reads():
    reader_end, writer_end = multiprocessing.Pipe(duplex=False)
    with reader_end, writer_end:
        write_frame(writer_end.fileno(), command_frame(COMMANDS[0]),
                    pytest.fail)
        assert pickle.loads(reader_end.recv_bytes()) == COMMANDS[0]


def test_a_pipe_with_no_reader_fails_the_writer_at_once():
    reader_end, writer_end = multiprocessing.Pipe(duplex=False)
    reader_end.close()
    with writer_end, pytest.raises(BrokenPipeError):
        write_frame(writer_end.fileno(), command_frame(COMMANDS[1]),
                    pytest.fail)
