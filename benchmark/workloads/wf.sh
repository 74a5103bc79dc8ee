tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn
