"""User-journey stages: retention cohorts, transition counts, funnels.

The randomized multi-block cases use FEW hot keys over MANY sorted blocks so
keys straddle block edges — the driver stitch / bounded-summary fold is the
path under test (the gap_stats test discipline)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

DAY_US = 86_400_000_000


def _events_df(n=30_000, users=7, span_days=40, seed=7):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "user_id": rng.integers(0, users, n).astype(np.int64),
            "ts": rng.integers(0, span_days * DAY_US, n).astype(np.int64),
            "event_type": rng.choice(
                np.array(["view", "click", "purchase", "error"]), n
            ),
        }
    )


def _multiblock_ds(df, chunk=5000):
    import ray.data as rd

    tables = [
        pa.Table.from_pandas(df.iloc[i : i + chunk]) for i in range(0, len(df), chunk)
    ]
    return rd.from_arrow(tables)


class TestRetentionCohorts:
    @staticmethod
    def _reference(df):
        pairs = (
            df.assign(day=df["ts"] // DAY_US)[["user_id", "day"]]
            .drop_duplicates()
        )
        cohort = pairs.groupby("user_id")["day"].min().rename("cohort_day")
        m = pairs.merge(cohort, on="user_id")
        m["offset_days"] = m["day"] - m["cohort_day"]
        out = (
            m.groupby(["cohort_day", "offset_days"])
            .size()
            .rename("n_users")
            .reset_index()
            .sort_values(["cohort_day", "offset_days"])
            .reset_index(drop=True)
        )
        return out.astype(np.int64)

    def test_randomized_vs_pandas(self, ray_session):
        from sprout_ray.stages.journeys import retention_cohorts

        df = _events_df()
        out = (
            retention_cohorts(_multiblock_ds(df))
            .to_pandas()
            .sort_values(["cohort_day", "offset_days"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, self._reference(df), check_dtype=False)

    def test_single_user_single_day(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.journeys import retention_cohorts

        df = pd.DataFrame(
            {"user_id": np.array([3, 3], np.int64), "ts": np.array([5, 9], np.int64)}
        )
        out = retention_cohorts(rd.from_arrow(pa.Table.from_pandas(df))).to_pandas()
        assert out.values.tolist() == [[0, 0, 1]]


class TestTransitionCounts:
    @staticmethod
    def _reference(df):
        s = df.sort_values(["user_id", "ts", "event_id"], kind="stable")
        prev = s.groupby("user_id")["event_type"].shift()
        pairs = pd.DataFrame(
            {"prev_type": prev, "next_type": s["event_type"]}
        ).dropna()
        return (
            pairs.groupby(["prev_type", "next_type"])
            .size()
            .rename("n")
            .reset_index()
            .sort_values(["prev_type", "next_type"])
            .reset_index(drop=True)
        )

    def test_randomized_multiblock_vs_pandas(self, ray_session):
        from sprout_ray.stages.journeys import transition_counts

        df = _events_df(users=5)
        ds = _multiblock_ds(df)
        assert (
            ds.sort(["user_id", "ts", "event_id"]).materialize().num_blocks() > 1
        ), "stitch path not exercised"
        out = (
            transition_counts(ds)
            .to_pandas()
            .sort_values(["prev_type", "next_type"])
            .reset_index(drop=True)
        )
        ref = self._reference(df)
        pd.testing.assert_frame_equal(out, ref, check_dtype=False)
        # total transitions = rows - distinct users (every user's first
        # event has no predecessor): in-band conservation check
        assert out["n"].sum() == len(df) - df["user_id"].nunique()

    def test_single_user_stream(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.journeys import transition_counts

        df = pd.DataFrame(
            {
                "event_id": np.arange(4, dtype=np.int64),
                "user_id": np.zeros(4, np.int64),
                "ts": np.arange(4, dtype=np.int64),
                "event_type": ["a", "b", "b", "a"],
            }
        )
        out = transition_counts(
            rd.from_arrow(pa.Table.from_pandas(df))
        ).to_pandas()
        assert out.values.tolist() == [["a", "b", 1], ["b", "a", 1], ["b", "b", 1]]


class TestFunnelStages:
    STAGES = ("view", "click", "purchase")

    @classmethod
    def _reference(cls, df):
        rows = []
        for uid, g in df.sort_values(["user_id", "ts"]).groupby("user_id"):
            t = -1
            s = 0
            for stage in cls.STAGES:
                cand = g[(g["event_type"] == stage) & (g["ts"] > t)]["ts"]
                if cand.empty:
                    break
                t = cand.min()
                s += 1
            if s >= 1:
                rows.append({"user_id": uid, "funnel_stage": s})
        return (
            pd.DataFrame(rows, columns=["user_id", "funnel_stage"])
            .astype(np.int64)
            .reset_index(drop=True)
        )

    def test_randomized_multiblock_vs_pandas(self, ray_session):
        from sprout_ray.stages.journeys import funnel_stages

        df = _events_df(users=6, seed=11)
        ds = _multiblock_ds(df)
        out = (
            funnel_stages(ds, stages=self.STAGES)
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(out, self._reference(df), check_dtype=False)

    def test_strict_order_and_ties(self, ray_session):
        """click before any view doesn't count; a click at EXACTLY the
        view's ts doesn't count (strict >); later legal click does."""
        import ray.data as rd

        from sprout_ray.stages.journeys import funnel_stages

        df = pd.DataFrame(
            {
                "event_id": np.arange(7, dtype=np.int64),
                "user_id": np.array([1, 1, 1, 2, 2, 3, 3], np.int64),
                "ts": np.array([5, 10, 10, 4, 9, 8, 2], np.int64),
                "event_type": [
                    "click", "view", "click",   # u1: view@10, click@10 tie -> stage 1
                    "view", "click",            # u2: view@4 -> click@9 -> stage 2
                    "purchase", "view",         # u3: purchase BEFORE view -> stage 1
                ],
            }
        )
        out = (
            funnel_stages(rd.from_arrow(pa.Table.from_pandas(df)))
            .to_pandas()
            .sort_values("user_id")
            .reset_index(drop=True)
        )
        assert out.values.tolist() == [[1, 1], [2, 2], [3, 1]]

    def test_no_stage_events(self, ray_session):
        import ray.data as rd

        from sprout_ray.stages.journeys import funnel_stages

        df = pd.DataFrame(
            {
                "event_id": np.array([0], np.int64),
                "user_id": np.array([9], np.int64),
                "ts": np.array([1], np.int64),
                "event_type": ["error"],
            }
        )
        out = funnel_stages(rd.from_arrow(pa.Table.from_pandas(df))).to_pandas()
        assert len(out) == 0

    def test_cross_block_tie_resolved(self, ray_session):
        """A click at EXACTLY the view's ts lands in a LATER block than the
        view: the fold must skip the tied click (strict >) and take the
        later legal one — the strict-chain variant of the bounded summary."""
        import ray.data as rd

        from sprout_ray.stages.journeys import funnel_stages

        t1 = pa.table(
            {
                "event_id": pa.array([0], pa.int64()),
                "user_id": pa.array([7], pa.int64()),
                "ts": pa.array([100], pa.int64()),
                "event_type": pa.array(["view"]),
            }
        )
        t2 = pa.table(
            {
                "event_id": pa.array([1, 2, 3], pa.int64()),
                "user_id": pa.array([7, 7, 7], pa.int64()),
                "ts": pa.array([100, 200, 200], pa.int64()),
                "event_type": pa.array(["click", "click", "purchase"]),
            }
        )
        # sorted two-block layout is preserved (from_arrow keeps tables
        # as blocks and the sort is already satisfied)
        ds = rd.from_arrow([t1, t2])
        out = funnel_stages(ds).to_pandas()
        # t1=100 (view); click@100 tied -> skip; click@200; purchase@200
        # tied with click -> but purchase@200 > click would need >200...
        # chain: t2=200 (click), purchase must be >200 -> none -> stage 2
        assert out.values.tolist() == [[7, 2]]

    def test_hot_user_spans_blocks(self, ray_session):
        """One user whose chain completes ACROSS block boundaries: stage 1
        in an early block, stages 2-3 only in later blocks — exercises the
        mid-chain (i>0) entries of the bounded summary fold."""
        import ray.data as rd

        from sprout_ray.stages.journeys import funnel_stages

        n = 9000
        ts = np.arange(n, dtype=np.int64) * 1000
        types = np.array(
            ["view"] * 3000 + ["click"] * 3000 + ["purchase"] * 3000, dtype=object
        )
        df = pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "user_id": np.zeros(n, np.int64),
                "ts": ts,
                "event_type": types,
            }
        )
        ds = _multiblock_ds(df, chunk=1500)
        from sprout_ray.stages.journeys import funnel_stages as _fs  # noqa: F401

        sorted_blocks = (
            ds.sort(["user_id", "ts", "event_id"]).materialize().num_blocks()
        )
        assert sorted_blocks > 1, "fold path not exercised"
        out = funnel_stages(ds).to_pandas()
        assert out.values.tolist() == [[0, 3]]


def test_retention_both_join_paths_agree(ray_session, monkeypatch):
    """DIM_BROADCAST_MAX=0 forces the distributed hash-join cohort plan;
    the result must be byte-identical to the broadcast plan."""
    import sprout_ray.stages.joins as J
    from sprout_ray.stages.journeys import retention_cohorts

    df = _events_df(n=8000, users=9, seed=21)
    a = retention_cohorts(_multiblock_ds(df)).to_pandas()
    monkeypatch.setattr(J, "DIM_BROADCAST_MAX", 0)
    b = retention_cohorts(_multiblock_ds(df)).to_pandas()
    pd.testing.assert_frame_equal(a, b)
