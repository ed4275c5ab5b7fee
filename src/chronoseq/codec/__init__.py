"""Timeline codec: records <-> token sequences, vocabulary, time arithmetic."""

from .tokens import (  # noqa: F401
    PAD,
    VS,
    VE,
    LT,
    END,
    MAX_ATT_DAYS,
    LONG_GAP_DAYS,
    TokenClass,
    TimeTriple,
    UnknownTokenError,
    att_token,
    att_days_of,
    classify_token,
    concept_id_of,
    concept_token,
    decompose_interval,
    recompose_interval,
)
from .records import (  # noqa: F401
    DOMAINS,
    ClinicalEvent,
    EventRow,
    EventTables,
    IngestReport,
    PatientRecord,
    PersonRow,
    RecordValidationError,
    Visit,
    VisitRow,
    csv_rows,
    read_csv_table,
    read_tables,
    records_to_tables,
    sorted_events,
    tables_to_records,
    validate_record,
    write_csv,
    write_tables,
)
from .codec import (  # noqa: F401
    CodecConfig,
    DecodeError,
    TokenSequence,
    decode_sequence,
    encode_patient,
    encode_prefix,
    parse_prefix,
    validate_sequence,
)
from .vocab import Vocabulary, ExpandReport, build_vocabulary, expand_vocabulary  # noqa: F401
from .seqio import read_sequences, write_sequences  # noqa: F401
