"""Audit service: train, save artifacts, serve claim scores over HTTP v2.

The serving workflow end-to-end (~1-2 minutes):

1. build the simulated BDC world and train the integrity model;
2. save the model + precomputed claim-score store as a pickle-free
   artifact bundle;
3. reload the bundle into a standalone :class:`AuditService` through the
   model registry (no world in memory) and start the stdlib JSON HTTP
   server;
4. run a scripted session with the typed :class:`AuditClient` SDK:
   health check, single-claim lookup, batch scoring, a cursor-paginated
   walk of one state's most suspicious claims, and the model registry.

    python examples/audit_service.py
"""

import tempfile
import threading

from repro.client import AuditClient
from repro.core import NBMIntegrityModel, build_dataset, build_world, make_feature_builder, tiny
from repro.dataset import random_observation_split
from repro.serve import AuditService, make_server


def main() -> None:
    print("Building the simulated BDC world and training the model...")
    world = build_world(tiny(seed=7))
    dataset = build_dataset(world)
    builder = make_feature_builder(world)
    split = random_observation_split(dataset, test_fraction=0.1, seed=1)
    model = NBMIntegrityModel(builder, params=world.config.model)
    model.fit(dataset, split.train_idx)

    print("Precomputing every claim's score and saving the artifact bundle...")
    service = AuditService.from_model(model)
    with tempfile.TemporaryDirectory(suffix=".audit-artifacts") as bundle:
        service.save(bundle)
        print(f"  bundle: {bundle} (manifest.json + raw .npy arrays, no pickle)")

        # Standalone reload: the server below holds no simulation world.
        standalone = AuditService.from_artifacts(bundle, version_name="2024-06")
        server = make_server(standalone, port=0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        threading.Thread(target=server.serve_forever, daemon=True).start()
        print(f"  serving at {base}  (try: curl '{base}/v2/claims?limit=3')\n")

        client = AuditClient(base)
        health = client.health()
        print(f"GET /healthz -> {health}")

        models = client.models()
        default = models["default"]
        print(
            f"GET /v2/models -> default={default!r}, "
            f"{len(models['versions'])} version(s) registered"
        )

        top = next(client.iter_claims(page_size=1))
        print(
            f"GET /v2/claims/{top.provider_id}/{top.cell}/{top.technology}"
        )
        record = client.get_claim(top.provider_id, top.cell, top.technology)
        print(
            f"  -> score={record.score:.4f} "
            f"percentile={record.percentile:.1f} rank={record.rank}"
        )

        batch = client.batch_score([record.key])
        print(
            f"POST /v2/claims:batchScore (1 claim) -> "
            f"{len(batch.results)} result(s) from version "
            f"{batch.model_version!r}"
        )

        state = top.state
        summary = client.state_summary(state)
        print(
            f"\nState {state}: {summary['n_claims']:,} claims, "
            f"{100 * summary['suspicious_share']:.1f}% over the suspicion "
            f"threshold"
        )
        print(f"Top-10 most suspicious claims in {state} "
              "(paper: red hexes a regulator would challenge first):")
        print(f"  {'rank':>4}  {'provider':>8}  {'tech':>4}  "
              f"{'score':>7}  {'pctile':>6}  cell")
        # A cursor-paginated walk through the state's suspicion order
        # (tiny pages on purpose, to show the cursors in action).
        for rec in client.iter_claims(state=state, page_size=4, max_items=10):
            print(
                f"  {rec.rank:>4}  {rec.provider_id:>8}  "
                f"{rec.technology:>4}  {rec.score:>7.4f}  "
                f"{rec.percentile:>6.1f}  {rec.cell:#x}"
            )

        stats = client.stats()["batcher"]
        print(
            f"\nBatcher: {stats['requests']} requests, "
            f"{stats['batches']} vectorized batches, "
            f"{stats['cache_hits']} cache hits"
        )
        client.close()
        server.shutdown()
        server.server_close()
        standalone.close()


if __name__ == "__main__":
    main()
