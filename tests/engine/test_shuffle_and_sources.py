"""Shuffle file machinery and input sources."""

import pytest

from repro.engine import HashPartitioner, SparkContext
from repro.engine.errors import ShuffleFetchError
from repro.engine.rdd import SourceRDD
from repro.engine.shuffle import ShuffleManager, read_reduce_input, write_map_output
from repro.engine.sources import LocalTextFileSource


class TestShuffleFiles:
    def test_write_read_roundtrip(self, tmp_path):
        p = HashPartitioner(3)
        records = [(k, k * 10) for k in range(30)]
        paths, nbytes = write_map_output(str(tmp_path), 0, 0, records, p)
        assert nbytes > 0
        got = []
        for r in range(3):
            if r in paths:
                for k, v in read_reduce_input([paths[r]]):
                    assert p.partition(k) == r
                    got.append((k, v))
        assert sorted(got) == records

    def test_manager_tracks_outputs(self, tmp_path):
        mgr = ShuffleManager(str(tmp_path))
        sid = mgr.new_shuffle_id()
        d = mgr.bucket_dir(sid)
        p = HashPartitioner(2)
        paths0, _ = write_map_output(d, sid, 0, [(0, "a"), (1, "b")], p)
        paths1, _ = write_map_output(d, sid, 1, [(0, "c")], p)
        mgr.register_map_output(sid, 0, paths0)
        mgr.register_map_output(sid, 1, paths1)
        for r in range(2):
            fetched = mgr.map_output_paths(sid, 2, r)
            records = list(read_reduce_input(fetched))
            assert all(p.partition(k) == r for k, _ in records)

    def test_missing_map_output_raises_fetch_error(self, tmp_path):
        mgr = ShuffleManager(str(tmp_path))
        sid = mgr.new_shuffle_id()
        mgr.register_map_output(sid, 0, {})
        with pytest.raises(ShuffleFetchError):
            mgr.map_output_paths(sid, 2, 0)  # map partition 1 never reported

    def test_empty_bucket_for_reducer_is_fine(self, tmp_path):
        mgr = ShuffleManager(str(tmp_path))
        sid = mgr.new_shuffle_id()
        mgr.register_map_output(sid, 0, {})  # map task produced nothing
        assert mgr.map_output_paths(sid, 1, 0) == []


class TestLocalTextFileSource:
    def _write(self, tmp_path, lines):
        path = tmp_path / "data.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_all_lines_exactly_once(self, tmp_path):
        lines = [f"line-{i:04d}-{'x' * (i % 17)}" for i in range(200)]
        path = self._write(tmp_path, lines)
        for nsplits in (1, 2, 3, 7, 50):
            src = LocalTextFileSource(path, nsplits)
            got = [line for i in range(nsplits) for line in src.read_split(i)]
            assert got == lines, f"nsplits={nsplits}"

    def test_via_context_text_file(self, tmp_path, sc):
        lines = [str(i) for i in range(57)]
        path = self._write(tmp_path, lines)
        rdd = sc.text_file(path, 5)
        assert rdd.map(int).collect() == list(range(57))

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            LocalTextFileSource("/nonexistent/file.txt", 2)

    def test_split_index_bounds(self, tmp_path):
        src = LocalTextFileSource(self._write(tmp_path, ["a"]), 2)
        with pytest.raises(IndexError):
            src.read_split(2)

    def test_more_splits_than_bytes(self, tmp_path):
        path = self._write(tmp_path, ["ab"])
        src = LocalTextFileSource(path, 10)
        got = [line for i in range(10) for line in src.read_split(i)]
        assert got == ["ab"]


class InMemorySource:
    """Local fake for `SourceRDD`: pre-partitioned in-memory splits."""

    def __init__(self, partitions):
        self._partitions = partitions

    def num_splits(self):
        return len(self._partitions)

    def read_split(self, i):
        return self._partitions[i]


class TestInMemorySource:
    def test_from_source(self, sc):
        src = InMemorySource([[1, 2], [3], []])
        rdd = SourceRDD(sc, src)
        assert rdd.num_partitions == 3
        assert rdd.collect() == [1, 2, 3]
