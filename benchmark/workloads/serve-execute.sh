tr A-Z a-z | sort | uniq -c
