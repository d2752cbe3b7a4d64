"""A KGMeta registration or deletion is one WAL transaction.

The governor writes a model's metadata triple by triple; under one hold of
the dataset's write lock, the journal commits them together at the
outermost release, so a reader (or recovery after a crash) sees all of a
model or none of it.
"""

from repro.kgnet import KGNet
from repro.storage import StorageEngine
from tests.kgnet.test_kgmeta import make_metadata


def test_each_registration_and_deletion_is_one_commit(
        tmp_path, paper_venue_task, author_affiliation_task):
    storage = StorageEngine(str(tmp_path), fsync=False)
    governor = KGNet(storage=storage).governor

    def last_seq():
        return storage.wal_window()[1]

    try:
        uris = []
        for task in (paper_venue_task, author_affiliation_task):
            before = last_seq()
            uris.append(governor.register_model(
                task, make_metadata(governor, task)))
            assert last_seq() == before + 1
        for uri in uris:
            before = last_seq()
            assert governor.delete_model(uri) > 0
            assert last_seq() == before + 1
    finally:
        storage.close()
