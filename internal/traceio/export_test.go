package traceio

// AppendRecordLine exposes the record encoder to the external tests.
var AppendRecordLine = appendRecordLine
