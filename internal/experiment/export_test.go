package experiment

// OnDecode is onDecode for the package's external tests.
var OnDecode = onDecode
