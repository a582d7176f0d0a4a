package attack

// BestRoundsScan exposes the exhaustive-scan oracle to the external
// test package, whose tests reach the report catalogue.
var BestRoundsScan = bestRoundsScan
