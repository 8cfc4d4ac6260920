module asterixfeeds/bench

go 1.22

require asterixfeeds v0.0.0

replace asterixfeeds => ../
