"""Property: interleaved commits keep each stream's last result.

Whatever order a run commits its cells and chunks in, across
experiments and with re-commits of the same stream, a fresh store over
the same root serves each stream the result its last commit wrote, and
holds exactly one file per stream.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.log import RunStore

#: One commit: (experiment, run, chunk of 1-3 members or a single
#: cell, result).  Few distinct streams, so re-commits are common.
commits_strategy = st.lists(
    st.tuples(
        st.sampled_from(["table5", "table6"]),
        st.integers(0, 3),
        st.sampled_from([None, 1, 2, 3]),
        st.one_of(
            st.none(),
            st.integers(-5, 5),
            st.floats(allow_nan=False),
            st.text(max_size=8),
        ),
    ),
    min_size=1,
    max_size=30,
)


def members(run, size):
    return [{"run": run, "member": i} for i in range(size)]


class TestStoreRoundTripProperty:
    @given(commits=commits_strategy)
    @settings(max_examples=25, deadline=None)
    def test_interleaved_commits_keep_each_streams_last_result(
        self, tmp_path_factory, commits
    ):
        root = tmp_path_factory.mktemp("roundtrip")
        store = RunStore(root)
        last = {}
        for experiment, run, size, value in commits:
            if size is None:
                store.commit_result(experiment, {"run": run}, value)
            else:
                store.commit_group_results(
                    experiment, members(run, size), [value] * size
                )
            last[(experiment, run, size)] = value

        reader = RunStore(root)
        for (experiment, run, size), value in last.items():
            if size is None:
                assert reader.load_result(experiment, {"run": run}) == (
                    True, value,
                )
            else:
                assert reader.load_group_results(
                    experiment, members(run, size)
                ) == (True, [value] * size)
        files = sorted(path for path in root.rglob("*") if path.is_file())
        assert len(files) == len(last)
        assert all(path.suffix == ".json" for path in files)
