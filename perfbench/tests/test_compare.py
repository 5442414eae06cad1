"""Tests of compare.py: records from different machines are never compared."""
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import compare  # noqa: E402


def record(cpus=4, compiler="GNU-12.2.0", build_type="Release",
           commit="git:abc", workload="hot_repeat", value=1.0):
    return {"fingerprint": {"cpus": cpus, "compiler": compiler,
                            "build_type": build_type, "commit": commit},
            "workload": workload, "seed": 1, "seconds": 24, "trace": 0,
            "result": {"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}}


class FingerprintTest(unittest.TestCase):
    def write(self, directory, name, rec):
        path = Path(directory) / name
        path.write_text(json.dumps(rec))
        return str(path)

    def test_same_machine_different_commit_compares(self):
        compare.check_fingerprints([record(commit="git:a"), record(commit="git:b")])

    def test_refuses_other_cpu_count(self):
        with self.assertRaises(compare.FingerprintMismatch):
            compare.check_fingerprints([record(cpus=4), record(cpus=1)])

    def test_refuses_other_compiler_or_build_type(self):
        with self.assertRaises(compare.FingerprintMismatch):
            compare.check_fingerprints([record(), record(compiler="Clang-17")])
        with self.assertRaises(compare.FingerprintMismatch):
            compare.check_fingerprints([record(), record(build_type="Debug")])

    def test_main_exits_2_on_mismatch(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as head:
            self.write(base, "a.json", record(cpus=4))
            self.write(head, "b.json", record(cpus=8))
            self.assertEqual(compare.main([base, "--against", head]), 2)

    def test_main_compares_matching_machines(self):
        with tempfile.TemporaryDirectory() as base, tempfile.TemporaryDirectory() as head:
            self.write(base, "a.json", record(value=1.0, commit="git:a"))
            self.write(head, "b.json", record(value=1.01, commit="git:b"))
            self.assertEqual(compare.main([base, "--against", head]), 0)


if __name__ == "__main__":
    unittest.main()
