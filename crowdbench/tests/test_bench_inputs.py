"""Seeded inputs: reproducible, and answers pure in ``(seed, worker, cell)``."""

import random
import threading

from crowdbench import inputs


def _crowd(seed, rows=30):
    table = inputs.synthetic_table(seed, rows)
    return inputs.Crowd(seed, table, inputs.WorkerPool.generate(seed, 40))


def _cells(table):
    return [(row, col) for row in range(table.num_rows) for col in range(table.num_columns)]


def test_answers_do_not_depend_on_request_order():
    crowd = _crowd(5)
    requests = [(worker, row, col) for worker in crowd.pool.ids[:6]
                for row, col in _cells(crowd.table)]
    in_order = {request: crowd.answer(*request) for request in requests}
    shuffled = list(requests)
    random.Random(1).shuffle(shuffled)
    fresh = _crowd(5)  # a new object must not carry state either
    assert {request: fresh.answer(*request) for request in shuffled} == in_order


def test_two_interleaved_clients_post_the_same_values():
    crowd = _crowd(6)
    requests = [(worker, row, col) for worker in crowd.pool.ids[:4]
                for row, col in _cells(crowd.table)]
    expected = {request: crowd.answer(*request) for request in requests}
    seen = {}

    def client(part):
        for request in part:
            seen[request] = crowd.answer(*request)

    threads = [threading.Thread(target=client, args=(requests[i::2],)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert seen == expected


def test_same_seed_same_inputs_and_digest():
    first, second = _crowd(7), _crowd(7)
    assert first.table == second.table and first.pool == second.pool
    digest = inputs.inputs_digest(first.table, first.pool, inputs.seed_batches(7, first))
    assert digest == inputs.inputs_digest(second.table, second.pool,
                                          inputs.seed_batches(7, second))
    other = _crowd(8)
    assert digest != inputs.inputs_digest(other.table, other.pool,
                                          inputs.seed_batches(8, other))


def test_seeding_answers_every_cell_once_in_activity_proportion():
    crowd = _crowd(9, rows=50)
    batches = inputs.seed_batches(9, crowd)
    cells = [(item["row"], item["col"]) for _worker, items in batches for item in items]
    assert sorted(cells) == _cells(crowd.table)
    rows_per_worker = {}
    for worker, _items in batches:
        rows_per_worker[worker] = rows_per_worker.get(worker, 0) + 1
    for index, worker in enumerate(crowd.pool.ids):
        share = crowd.pool.activity[index] * crowd.table.num_rows
        assert abs(rows_per_worker.get(worker, 0) - share) < 1.0


def test_answers_are_valid_for_their_columns():
    crowd = _crowd(10)
    for worker in crowd.pool.ids[:5]:
        for row, col in _cells(crowd.table):
            value = crowd.answer(worker, row, col)
            column = crowd.table.columns[col]
            if column.categorical:
                assert value in column.labels
            else:
                assert column.domain[0] <= value <= column.domain[1]


def test_pool_profile_is_the_same_for_every_seed():
    first, second = inputs.WorkerPool.generate(3, 100), inputs.WorkerPool.generate(4, 100)
    assert first != second
    assert sorted(first.variance) == sorted(second.variance)
    assert sorted(first.activity) == sorted(second.activity)
    assert sorted(first.contamination) == sorted(second.contamination)
    assert abs(sum(first.activity) - 1.0) < 1e-9
