"""Serving-tier tests: sessions, admission, batching, drain, equality.

The load-bearing guarantee pinned here is **transport transparency**:
the served decision stream and the anchored ledger root are identical
to calling ``submit_many`` in-process on the same total update order —
for the plaintext and Paillier engines and for a sharded target.  The
rest is the failure surface: unauthenticated submits refused, bad auth
forfeits the connection, queue-full answers RETRY (never drops),
shutdown drains every admitted batch.
"""

import asyncio
import contextlib
import dataclasses

import pytest

from repro.core.framework import PReVer
from repro.core.sharded import ShardedPReVer, ShardSpec
from repro.database.engine import Database
from repro.database.schema import ColumnType, TableSchema
from repro.durability import Durability
from repro.model.constraints import (
    Constraint,
    ConstraintKind,
    upper_bound_regulation,
)
from repro.model.participants import DataProducer
from repro.model.update import Update, UpdateOperation
from repro.serve import protocol
from repro.serve.client import (
    ConnectionClosed,
    RequestError,
    ServeClient,
    ServerBusy,
)
from repro.serve.server import PReVerServer

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

ALICE = DataProducer("alice")
BOB = DataProducer("bob")


def make_db(name="manager"):
    schema = TableSchema.build(
        "emissions",
        [("id", ColumnType.INT), ("org", ColumnType.TEXT),
         ("co2", ColumnType.INT)],
        primary_key=["id"],
    )
    database = Database(name)
    database.create_table(schema)
    return database


def build_framework(engine="plaintext", durability=None):
    from repro.core.contexts import single_private_database

    template = upper_bound_regulation("cap", "emissions", "co2", bound=100,
                                      match_columns=["org"])
    # Pin the constraint id: the replay framework must anchor the same
    # identifiers or the root-equality asserts would compare apples to
    # freshly-numbered oranges.
    cap = dataclasses.replace(template, constraint_id="cst-serve-cap")
    return single_private_database(make_db(), [cap], engine=engine,
                                   durability=durability)


def make_updates(producer, ids, co2=20, org=None):
    return [
        Update(table="emissions", operation=UpdateOperation.INSERT,
               payload={"id": i, "org": org or producer.name, "co2": co2},
               update_id=f"upd-{producer.name}-{i:04d}").sign_with(producer)
        for i in ids
    ]


@contextlib.asynccontextmanager
async def serving(target, **config):
    server = PReVerServer(target, **config)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


def replay_in_process(served_results, updates_by_id, engine="plaintext"):
    """Re-run the served stream in-process, in served ledger order."""
    ordered = sorted(served_results, key=lambda r: r.ledger_sequence)
    replay = build_framework(engine=engine)
    results = replay.submit_many([updates_by_id[r.update_id]
                                  for r in ordered])
    return replay, ordered, results


# -- transport transparency --------------------------------------------------


def test_served_equals_in_process_plaintext_concurrent_clients(tmp_path):
    for durability in (None, Durability.serving(str(tmp_path))):
        _check_served_equals_in_process(durability)


def _check_served_equals_in_process(durability):
    """Durability off, then the serving WAL preset: the group-commit
    path must not change a served decision or the anchored root."""
    async def scenario():
        framework = build_framework(durability=durability)
        updates_by_id = {}
        async with serving(framework, batch_window=0.02,
                           producers={"alice": ALICE.public_key,
                                      "bob": BOB.public_key}) as server:
            host, port = server.address

            async def one_client(producer, offset):
                updates = make_updates(producer, range(offset, offset + 6),
                                       co2=30)
                updates_by_id.update({u.update_id: u for u in updates})
                async with await ServeClient.connect(
                        host, port, producer=producer) as client:
                    first = await client.submit(updates[0])
                    rest = await client.submit_many(updates[1:])
                    return [first] + rest

            served = await asyncio.gather(one_client(ALICE, 0),
                                          one_client(BOB, 100))
        return framework, [r for batch in served for r in batch], updates_by_id

    framework, served, updates_by_id = asyncio.run(scenario())
    assert len(served) == 12
    # Both accepts and cap rejections must appear (the 100-cap trips
    # after three 30s per org), each with a ledger sequence.
    assert any(r.applied for r in served) and any(
        not r.applied for r in served)
    replay, ordered, replayed = replay_in_process(served, updates_by_id)
    for served_result, replay_result in zip(ordered, replayed):
        assert served_result.update_id == replay_result.update.update_id
        assert served_result.accepted == replay_result.outcome.accepted
        assert served_result.applied == replay_result.applied
        assert (served_result.failed_constraint
                == replay_result.outcome.failed_constraint)
    assert framework.ledger.digest().root == replay.ledger.digest().root
    framework.close()


def test_served_equals_in_process_paillier():
    async def scenario():
        framework = build_framework(engine="paillier")
        updates = make_updates(ALICE, range(4), co2=40)
        async with serving(framework, batch_window=0.01,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                served = await client.submit_many(updates)
        return framework, served, {u.update_id: u for u in updates}

    framework, served, updates_by_id = asyncio.run(scenario())
    assert [r.engine for r in served] == ["paillier"] * 4
    replay, _, replayed = replay_in_process(served, updates_by_id,
                                            engine="paillier")
    assert [r.applied for r in replayed] == [r.applied for r in served]
    assert framework.ledger.digest().root == replay.ledger.digest().root


def test_sharded_target_served_decisions_match():
    def build_sharded():
        def build_shard():
            framework = PReVer([make_db("shard-db")])
            template = upper_bound_regulation("cap", "emissions", "co2",
                                              bound=100,
                                              match_columns=["org"])
            framework.register_constraint(Constraint(
                name="cap", kind=ConstraintKind.INTERNAL,
                aggregate=template.aggregate,
                comparison=template.comparison, bound=100,
                tables=("emissions",), constraint_id="cst-serve-cap",
            ))
            return framework

        return ShardedPReVer([ShardSpec("s0", ("emissions",), build_shard)])

    async def scenario():
        sharded = build_sharded()
        updates = make_updates(ALICE, range(5), co2=30)
        async with serving(sharded, batch_window=0.01,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                served = await client.submit_many(updates)
        sharded.close()
        return served, updates

    served, updates = asyncio.run(scenario())
    assert [r.shard for r in served] == ["s0"] * 5
    replay = build_sharded()
    replayed = replay.submit_many(
        [Update(table=u.table, operation=u.operation, payload=u.payload,
                producers=list(u.producers), update_id=u.update_id,
                signature=u.signature,
                signer_public_key=u.signer_public_key)
         for u in updates])
    replay.close()
    assert [r.applied for r in replayed] == [r.applied for r in served]


# -- sessions and auth -------------------------------------------------------


def test_unauthenticated_submit_is_refused():
    async def scenario():
        framework = build_framework()
        async with serving(framework) as server:
            host, port = server.address
            async with await ServeClient.connect(host, port) as client:
                update = make_updates(ALICE, [1])[0]
                with pytest.raises(RequestError) as excinfo:
                    await client.submit(update)
        return excinfo.value

    error = asyncio.run(scenario())
    assert error.symbol == "AUTH_REQUIRED"
    assert error.code == protocol.ERROR_CODES["AUTH_REQUIRED"]


def test_bad_auth_signature_forfeits_the_connection():
    async def scenario():
        framework = build_framework()
        async with serving(framework) as server:
            host, port = server.address
            client = await ServeClient.connect(host, port)
            try:
                await client.request("HELLO", {
                    "producer": "alice",
                    "public_key": ALICE.public_key,
                    "version": protocol.PROTOCOL_VERSION,
                })
                with pytest.raises(RequestError) as excinfo:
                    await client.request("AUTH", {
                        "signature": {"R": 12345, "s": 67890}})
                assert excinfo.value.symbol == "AUTH_FAILED"
                # The server drops the link after a failed handshake.
                with pytest.raises((ConnectionClosed, RequestError)):
                    await client.request("HELLO", {
                        "producer": "alice",
                        "public_key": ALICE.public_key,
                        "version": protocol.PROTOCOL_VERSION,
                    })
            finally:
                await client.close()
        return framework

    framework = asyncio.run(scenario())
    assert framework.metrics.counter_value("server.auth_failures") == 1


def test_producer_allowlist_pins_keys():
    async def scenario():
        framework = build_framework()
        async with serving(framework,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            # Right name, wrong key: refused at HELLO.
            client = await ServeClient.connect(host, port)
            try:
                with pytest.raises(RequestError) as excinfo:
                    await client.authenticate(BOB.__class__("alice"))
                assert excinfo.value.symbol == "AUTH_FAILED"
            finally:
                await client.close()
            # Registered producer: session opens and submits work.
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                assert client.session_id
                result = await client.submit(make_updates(ALICE, [9])[0])
                assert result.applied

    asyncio.run(scenario())


def test_hello_version_mismatch():
    async def scenario():
        framework = build_framework()
        async with serving(framework) as server:
            host, port = server.address
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(RequestError) as excinfo:
                    await client.request("HELLO", {
                        "producer": "alice",
                        "public_key": ALICE.public_key,
                        "version": 99,
                    })
        return excinfo.value

    assert asyncio.run(scenario()).symbol == "UNSUPPORTED_VERSION"


# -- framing and envelope failures against a live server ---------------------


def test_garbage_frame_drops_the_connection():
    async def scenario():
        framework = build_framework()
        async with serving(framework) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            # Declared length far beyond the cap: rejected from the
            # header alone, one ERROR frame, then EOF.
            writer.write(protocol.FRAME_HEADER.pack(1 << 30, 0x01))
            await writer.drain()
            message = await protocol.read_frame(reader)
            eof = await reader.read(1)
            writer.close()
            return framework, message, eof

    framework, message, eof = asyncio.run(scenario())
    assert message["type"] == "ERROR"
    assert message["body"]["error"] == "FRAME_TOO_LARGE"
    assert eof == b""  # the server hung up
    assert framework.metrics.counter_value("server.frame_errors") == 1


def test_envelope_version_mismatch_drops_the_connection():
    async def scenario():
        framework = build_framework()
        async with serving(framework) as server:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(protocol.encode_frame(
                {"v": 2, "type": "HELLO", "id": 1, "body": {}}))
            await writer.drain()
            message = await protocol.read_frame(reader)
            eof = await reader.read(1)
            writer.close()
            return message, eof

    message, eof = asyncio.run(scenario())
    assert message["type"] == "ERROR"
    assert message["body"]["error"] == "UNSUPPORTED_VERSION"
    assert eof == b""


def test_response_type_from_client_is_refused():
    async def scenario():
        framework = build_framework()
        async with serving(framework) as server:
            host, port = server.address
            async with await ServeClient.connect(host, port) as client:
                with pytest.raises(RequestError) as excinfo:
                    await client.request("RESULT", {})
        return excinfo.value

    assert asyncio.run(scenario()).symbol == "BAD_MESSAGE"


# -- admission control and backpressure --------------------------------------


def test_queue_full_answers_retry_then_recovers():
    async def scenario():
        framework = build_framework()
        updates = make_updates(ALICE, range(3), co2=10)
        async with serving(framework, queue_limit=2, batch_window=0.25,
                           retry_after_ms=10,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                # Pipeline two submits into the open batch window...
                first = asyncio.ensure_future(client.submit(updates[0]))
                second = asyncio.ensure_future(client.submit(updates[1]))
                await asyncio.sleep(0.05)
                # ...so the third exceeds queue_limit=2 and gets RETRY.
                with pytest.raises(ServerBusy) as excinfo:
                    await client.submit(updates[2], retries=0)
                assert excinfo.value.retry_after_ms == 10
                # With retries the same submit eventually lands.
                third = await client.submit(updates[2], retries=50)
                results = [await first, await second, third]
        return framework, results

    framework, results = asyncio.run(scenario())
    assert all(r.applied for r in results)
    assert framework.metrics.counter_value("server.retries") >= 1
    # RETRY is backpressure, not loss: all three updates are anchored.
    assert framework.ledger.digest().size >= 3


def test_oversize_request_is_never_admittable():
    async def scenario():
        framework = build_framework()
        updates = make_updates(ALICE, range(4), co2=10)
        async with serving(framework, queue_limit=3,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                with pytest.raises(ServerBusy):
                    await client.submit_many(updates, retries=1)

    asyncio.run(scenario())


def test_draining_server_refuses_new_submits():
    async def scenario():
        framework = build_framework()
        async with serving(framework,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                server._draining = True
                with pytest.raises(RequestError) as excinfo:
                    await client.submit(make_updates(ALICE, [1])[0])
                server._draining = False
        return excinfo.value

    assert asyncio.run(scenario()).symbol == "SHUTTING_DOWN"


def test_shutdown_drains_in_flight_batches():
    async def scenario():
        framework = build_framework()
        updates = make_updates(ALICE, range(3), co2=10)
        server = PReVerServer(framework, batch_window=0.3,
                              producers={"alice": ALICE.public_key})
        await server.start()
        host, port = server.address
        client = await ServeClient.connect(host, port, producer=ALICE)
        tasks = [asyncio.ensure_future(client.submit(u)) for u in updates]
        await asyncio.sleep(0.05)  # all three admitted, window still open
        await server.stop()  # must complete the batch, not abort it
        results = [await task for task in tasks]
        await client.close()
        return framework, results

    framework, results = asyncio.run(scenario())
    assert [r.applied for r in results] == [True] * 3
    assert framework.ledger.digest().size == 3


# -- observability -----------------------------------------------------------


def test_server_metrics_land_on_the_framework_registry():
    async def scenario():
        framework = build_framework()
        async with serving(framework, batch_window=0.01,
                           producers={"alice": ALICE.public_key}) as server:
            host, port = server.address
            async with await ServeClient.connect(
                    host, port, producer=ALICE) as client:
                await client.submit_many(make_updates(ALICE, range(3)))
        return framework

    framework = asyncio.run(scenario())
    metrics = framework.metrics
    assert metrics.counter_value("server.connections") == 1
    assert metrics.counter_value("server.sessions") == 1
    assert metrics.counter_total("server.updates") == 3
    assert metrics.counter_value("server.batches") >= 1
    assert metrics.counter_value("server.producer.alice.updates") == 1
    assert metrics.counter_total("server.producer.alice.updates") == 3
    assert metrics.timer_total("server.batch") > 0
    # The ops endpoint reads the same registry, so the serving tier is
    # already on /metrics with zero extra wiring.
    assert metrics.gauge_value("server.queue_depth") == 0
